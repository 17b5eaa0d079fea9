"""Periodic (co)chains, boundary, cap product and the classical trace.

A periodic k-chain on the cover of a quotient complex is stored as an
equivariant part (one integer per quotient k-simplex, repeated over every
translate) plus a finitely supported exceptional part on cover cells
``(deck element, simplex index)``.  The value on a cover cell is the sum of
both parts, so every such chain is bounded by construction.  Cochains have
the same shape and are evaluated against cover cells.

Because simplices are stored ascending, the j-th face carries coefficient
``(-1)**j`` and the deck coordinate of a face follows from the edge labels
alone; no part of the chain algebra needs a materialized region.

Sign conventions
----------------
``boundary`` is the alternating face sum.  ``coboundary`` is defined by
``(du)(s) = (-1)**(p+1) u(boundary s)`` for a p-cochain u; with this sign
the chain-level cap product

    u cap c = (-1)**(p(q-p)) sum a_i u(back p-face) (front (q-p)-face)

satisfies the Leibniz identity  d(u cap c) = (du) cap c + (-1)**p u cap (dc)
exactly in every bidegree.  The pairing consequently satisfies
``<du, c> = (-1)**(p+1) <u, dc>``; the unsigned adjunction holds in odd
degrees only.  For finite deck groups all chains are normalized to a purely
exceptional form so that representations are unique.

All operations here are pure functions of immutable-by-convention inputs,
so they are safe to evaluate in parallel over disjoint translates.
"""

from __future__ import annotations

from fractions import Fraction

from .classes import _prune
from .complexes import PeriodicComplex, QuotientComplex
from .errors import InputError, InternalError
from .groups import FiniteGroup


class PeriodicChain:
    """Equivariant + finitely supported integer chain of fixed degree."""

    def __init__(self, complex: QuotientComplex, degree: int,
                 equivariant=None, exceptional=None):
        if not (0 <= degree <= complex.dimension):
            raise InputError(f"degree {degree} out of range for an "
                             f"{complex.dimension}-complex")
        self.complex = complex
        self.degree = degree
        self.equivariant = _prune(dict(equivariant or {}))
        self.exceptional = _prune(dict(exceptional or {}))
        if isinstance(complex.group, FiniteGroup) and self.equivariant:
            for g in complex.group.elements():
                for idx, a in self.equivariant.items():
                    key = (g, idx)
                    self.exceptional[key] = self.exceptional.get(key, 0) + a
            self.equivariant = {}
            self.exceptional = _prune(self.exceptional)

    def value(self, g, idx: int) -> int:
        return self.equivariant.get(idx, 0) + self.exceptional.get((g, idx), 0)

    def _same_shape(self, other):
        if self.complex is not other.complex or self.degree != other.degree:
            raise InputError("chains live on different complexes or degrees")

    def __add__(self, other):
        self._same_shape(other)
        eq = dict(self.equivariant)
        for k, v in other.equivariant.items():
            eq[k] = eq.get(k, 0) + v
        ex = dict(self.exceptional)
        for k, v in other.exceptional.items():
            ex[k] = ex.get(k, 0) + v
        return type(self)(self.complex, self.degree, eq, ex)

    def __neg__(self):
        return type(self)(self.complex, self.degree,
                          {k: -v for k, v in self.equivariant.items()},
                          {k: -v for k, v in self.exceptional.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return type(self)(self.complex, self.degree,
                          {k: c * v for k, v in self.equivariant.items()},
                          {k: c * v for k, v in self.exceptional.items()})

    def is_zero(self) -> bool:
        return not self.equivariant and not self.exceptional

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.complex is other.complex
                and self.degree == other.degree
                and self.equivariant == other.equivariant
                and self.exceptional == other.exceptional)

    def __hash__(self):
        raise TypeError("periodic chains are mutable value objects")

    def __repr__(self):
        return (f"<{type(self).__name__} deg={self.degree} "
                f"eq={len(self.equivariant)} exc={len(self.exceptional)}>")


class PeriodicCochain(PeriodicChain):
    """Same storage as a chain, but evaluated against cover cells."""


# ---------------------------------------------------------------------------
# Boundary and coboundary


def boundary(c: PeriodicChain) -> PeriodicChain:
    """Alternating face sum; exact on both parts.

    The equivariant part maps through the quotient face maps (the deck
    shift of a face permutes translates, which leaves an equivariant
    coefficient unchanged); exceptional cells route through their exact
    cover faces, whose deck coordinates follow from the edge labels.
    """
    if c.degree < 1:
        raise InputError("boundary needs degree >= 1")
    q = c.complex
    group = q.group
    eq: dict = {}
    ex: dict = {}
    for idx, a in c.equivariant.items():
        for fidx, fsign, _ in q.face_data(c.degree, idx):
            eq[fidx] = eq.get(fidx, 0) + a * fsign
    for (g, idx), a in c.exceptional.items():
        for fidx, fsign, shift in q.face_data(c.degree, idx):
            key = (group.multiply(g, shift), fidx)
            ex[key] = ex.get(key, 0) + a * fsign
    return PeriodicChain(q, c.degree - 1, eq, ex)


def coboundary(u: PeriodicCochain) -> PeriodicCochain:
    """(du)(s) = (-1)**(p+1) u(boundary s), the transpose with a sign.

    The transpose of the face map sends the value on a face cell to every
    cofacet; for the equivariant part this is the transposed quotient
    matrix, for the exceptional part the deck coordinate of the cofacet is
    solved from the face shift.
    """
    q = u.complex
    p = u.degree
    if p + 1 > q.dimension:
        raise InputError("coboundary exceeds the complex dimension")
    group = q.group
    sign_global = (-1) ** (p + 1)
    eq: dict = {}
    ex: dict = {}
    for idx in q.cells(p + 1):
        for fidx, fsign, shift in q.face_data(p + 1, idx):
            a = u.equivariant.get(fidx, 0)
            if a:
                eq[idx] = eq.get(idx, 0) + sign_global * fsign * a
    for (g, fidx), a in u.exceptional.items():
        # cofacets s with face f: deck of the cofacet solves g = h * shift
        for idx, j in q.cofacets[p][fidx]:
            _, fsign, shift = q.face_data(p + 1, idx)[j]
            key = (group.multiply(g, group.inverse(shift)), idx)
            ex[key] = ex.get(key, 0) + sign_global * fsign * a
    return PeriodicCochain(q, p + 1, eq, ex)


def pair(u: PeriodicCochain, c: PeriodicChain) -> int:
    """Pairing <u, c> against a finitely supported chain."""
    if u.degree != c.degree:
        raise InputError("pairing needs equal degrees")
    # a chain over a finite group holds its equivariant part as exceptional
    if c.equivariant:
        raise InputError("pairing against an infinite equivariant chain diverges")
    return sum(a * u.value(g, idx) for (g, idx), a in c.exceptional.items())


# ---------------------------------------------------------------------------
# Fundamental cycle and cap product


def fundamental_cycle(pc: PeriodicComplex) -> PeriodicChain:
    """Sum of all top simplices with their orientation signs, which are
    coherent: a :class:`PeriodicComplex` is validated when it is built and
    refuses incoherent signs with an OrientationError."""
    q = pc.quotient
    return PeriodicChain(q, q.dimension, dict(q.orientation), {})


def cap(u: PeriodicCochain, c: PeriodicChain) -> PeriodicChain:
    """Chain-level cap product via back-face evaluation.

    For an ordered q-simplex the p-cochain is evaluated on the back face
    (last p+1 vertices) and the front face (first q-p+1 vertices) is kept,
    scaled by (-1)**(p(q-p)).  Both inputs may have equivariant and
    exceptional parts; all four products are formed exactly.
    """
    if u.complex is not c.complex:
        raise InputError("cap factors live on different complexes")
    p, qdeg = u.degree, c.degree
    if p > qdeg:
        raise InputError("cap needs cochain degree <= chain degree")
    q = c.complex
    group = q.group
    r = qdeg - p
    eps = (-1) ** (p * r)
    front_pos = tuple(range(r + 1))
    back_pos = tuple(range(r, qdeg + 1))

    # per q-simplex: front/back face indices and the deck shift of the back
    geom = []
    for idx in q.cells(qdeg):
        _, front_idx, front_shift = q.subface_shift(qdeg, idx, front_pos)
        _, back_idx, back_shift = q.subface_shift(qdeg, idx, back_pos)
        if front_shift != group.identity():
            raise InternalError("front face must share the anchor vertex")
        geom.append((front_idx, back_idx, back_shift))

    back_lookup: dict = {}
    for idx, (_, back_idx, back_shift) in enumerate(geom):
        back_lookup.setdefault(back_idx, []).append((idx, back_shift))

    eq: dict = {}
    ex: dict = {}

    for idx, a in c.equivariant.items():
        front_idx, back_idx, _ = geom[idx]
        ueq = u.equivariant.get(back_idx, 0)
        if ueq:
            eq[front_idx] = eq.get(front_idx, 0) + eps * a * ueq
    for (h, back_idx), uval in u.exceptional.items():
        for idx, back_shift in back_lookup.get(back_idx, []):
            a = c.equivariant.get(idx, 0)
            if a:
                g = group.multiply(h, group.inverse(back_shift))
                key = (g, geom[idx][0])
                ex[key] = ex.get(key, 0) + eps * a * uval
    for (g, idx), a in c.exceptional.items():
        front_idx, back_idx, back_shift = geom[idx]
        uval = u.equivariant.get(back_idx, 0) + \
            u.exceptional.get((group.multiply(g, back_shift), back_idx), 0)
        if uval:
            key = (g, front_idx)
            ex[key] = ex.get(key, 0) + eps * a * uval
    return PeriodicChain(q, r, eq, ex)


# ---------------------------------------------------------------------------
# Classical oracle: Betti numbers and the Hopf trace of the quotient


def _boundary_columns(q: QuotientComplex, k: int) -> list:
    """The k-th boundary of the quotient as sparse columns, one per k-cell."""
    signs = [(-1) ** j for j in range(k + 1)]
    return [dict(zip(q.facet_ids(k, idx), signs)) for idx in q.cells(k)]


def _rank(columns) -> int:
    """Rank over Q of sparse integer columns by exact column reduction.

    A reduced column is kept under its largest row (its pivot); each new
    column is reduced against the kept pivots until it vanishes or reaches
    a free pivot.  Boundary columns have k+1 entries, so fill-in stays small.
    """
    pivots: dict = {}
    for col in columns:
        col = {r: Fraction(c) for r, c in col.items()}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            f = col[low] / other[low]
            for r, c in other.items():
                v = col.get(r, 0) - f * c
                if v:
                    col[r] = v
                else:
                    col.pop(r, None)
    return len(pivots)


def quotient_homology(q: QuotientComplex) -> list:
    """Rational Betti numbers of the quotient.

    b_k = c_k - rank d_k - rank d_(k+1), with the ranks from :func:`_rank`.
    """
    n = q.dimension
    ranks = [0] + [_rank(_boundary_columns(q, k)) for k in range(1, n + 1)] + [0]
    return [q.count(k) - ranks[k] - ranks[k + 1] for k in range(n + 1)]


def lefschetz_number_quotient(q: QuotientComplex, fbar) -> int:
    """Classical Lefschetz number of a simplicial self-map of the quotient.

    ``fbar`` is a chain-mappable simplicial model: an object exposing
    ``chain_image(k, idx) -> list[(target_idx, coeff)]`` on the chains of
    ``q``, such as a simplicial map model, which composes its subdivision
    chain map itself.  By the Hopf trace formula the alternating trace of a
    chain map equals the alternating trace on rational homology, so the
    number is read off the diagonal of the chain map.
    """
    total = 0
    for k in range(q.dimension + 1):
        trace = sum(c for idx in q.cells(k)
                    for tgt, c in fbar.chain_image(k, idx) if tgt == idx)
        total += (-1) ** k * trace
    return total


# ---------------------------------------------------------------------------
# Random instances for the property suites


def random_chain(rng, q: QuotientComplex, degree: int, radius: int = 2,
                 cochain: bool = False, max_terms: int = 4):
    cls = PeriodicCochain if cochain else PeriodicChain
    eq = {idx: rng.randint(-4, 4) for idx in q.cells(degree)
          if rng.random() < 0.5}
    ball = sorted(q.group.ball(radius), key=q.group.sort_key)
    ex = {}
    for _ in range(rng.randint(0, max_terms)):
        g = rng.choice(ball)
        idx = rng.randrange(q.count(degree))
        ex[(g, idx)] = rng.randint(-4, 4)
    return cls(q, degree, eq, ex)
