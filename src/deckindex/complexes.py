"""Periodic oriented simplicial pseudomanifolds given by finite quotient data.

A :class:`QuotientComplex` is a finite simplicial complex together with a
deck group, a group label on every oriented edge (the holonomy description
of a covering), an orientation sign on every top simplex and a spanning
tree on which labels are normalized to the identity.  The covering space is
never stored; cells of the cover are pairs ``(g, simplex)`` and adjacency
is resolved through the edge labels, so any finite part of the cover can
be read on demand.

Simplices are stored as ascending tuples of vertex ids.  With that
normalization the j-th face of a simplex is again ascending and the
boundary coefficient is exactly ``(-1)**j``, which keeps all chain-level
bookkeeping free of permutation parities.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalError, OrientationError, ResourceError
from .groups import (FreeAbelianGroup, FiniteGroup, group_from_document, group_to_document,
                     integer_value)
from .reports import fraction_str


@dataclass
class ValidationReport:
    """Diagnostics from :func:`validate_quotient`; empty means valid."""

    violations: list = field(default_factory=list)

    def add(self, kind: str, detail: str) -> None:
        self.violations.append({"kind": kind, "detail": detail})

    @property
    def valid(self) -> bool:
        return not self.violations

    def kinds(self) -> set:
        return {v["kind"] for v in self.violations}

    def to_document(self) -> dict:
        return {"valid": self.valid, "violations": self.violations}


class QuotientComplex:
    """Finite quotient datum of a periodic complex.

    Parameters
    ----------
    group : MarkedGroup
        The deck group of the encoded covering.
    vertices : list of str
        Vertex names; vertex ids are positions in this list.
    simplices_by_dim : list of list of tuple
        ``simplices_by_dim[k]`` lists the k-simplices as ascending tuples
        of vertex ids.  Dimension 0 must enumerate all vertices.
    orientation : dict
        Sign (+1/-1) per top-simplex index.
    labels : dict
        Deck label per edge index, for the ascending direction of the edge.
    tree : set
        Edge indices of the spanning tree used for label normalization.
        May be empty for derived complexes.
    coordinates : dict, optional
        Exact rational coordinates per vertex id, for complexes with a
        Euclidean model (flat torus covers, realized finite complexes).
    """

    def __init__(self, group, vertices, simplices_by_dim, orientation, labels,
                 tree=frozenset(), coordinates=None, name=""):
        self.group = group
        self.vertices = list(vertices)
        self.simplices = [list(map(tuple, dim_list)) for dim_list in simplices_by_dim]
        self.dimension = len(self.simplices) - 1
        self.orientation = dict(orientation)
        self.labels = dict(labels)
        self.tree = frozenset(tree)
        self.coordinates = dict(coordinates) if coordinates else None
        self.name = name
        self._index = [dict(zip(dim_list, itertools.count()))
                       for dim_list in self.simplices]
        self._check_basic_shape()

    # -- basic structure ----------------------------------------------------

    def _check_basic_shape(self):
        if not self.simplices or len(self.simplices[0]) != len(self.vertices):
            raise InputError("dimension 0 must enumerate all vertices")
        for k, dim_list in enumerate(self.simplices):
            # a dimension passes when all its simplices have k + 1 vertices
            # and each column of vertex ids is below the next; otherwise the
            # first offender is named
            if {*map(len, dim_list)} <= {k + 1} and all(
                    all(map(operator.lt, map(operator.itemgetter(j), dim_list),
                            map(operator.itemgetter(j + 1), dim_list))) for j in range(k)):
                continue
            for s in dim_list:
                if len(s) != k + 1:
                    raise InputError(f"simplex {s} listed in dimension {k}")
                if list(s) != sorted(set(s)):
                    raise InputError(f"simplex {s} is not an ascending vertex tuple")
        if len(set(self.simplices[0])) != len(self.vertices):
            raise InputError("duplicate vertices in dimension 0")

    def count(self, k: int) -> int:
        return len(self.simplices[k]) if 0 <= k <= self.dimension else 0

    def cells(self, k: int):
        return range(self.count(k))

    def index_of(self, k: int, simplex) -> int:
        try:
            return self._index[k][tuple(simplex)]
        except KeyError:
            raise InputError(f"simplex {simplex} of dimension {k} is not present")

    def simplex(self, k: int, idx: int):
        return self.simplices[k][idx]

    def vertex_name(self, vid: int) -> str:
        return self.vertices[vid]

    # -- labels ---------------------------------------------------------------

    def edge_label(self, u: int, v: int):
        """Deck label of the oriented edge u -> v."""
        if u == v:
            raise InternalError("degenerate edge")
        if u < v:
            idx = self.index_of(1, (u, v))
            return self.labels[idx]
        idx = self.index_of(1, (v, u))
        return self.group.inverse(self.labels[idx])

    def shift(self, simplex, face):
        """Deck shift from a simplex anchor to a face anchor.

        The lift of ``simplex`` with deck coordinate g has its face over
        ``face`` at deck coordinate ``g * shift(simplex, face)``.
        """
        if simplex[0] == face[0]:
            return self.group.identity()
        return self.edge_label(simplex[0], face[0])

    def face_data(self, k: int, idx: int):
        """Faces of a k-simplex: list of (face_index, sign, deck_shift)."""
        s = self.simplex(k, idx)
        out = []
        for j in range(k + 1):
            face = s[:j] + s[j + 1:]
            out.append((self.index_of(k - 1, face), (-1) ** j, self.shift(s, face)))
        return out

    def subface_shift(self, k: int, idx: int, positions):
        """Face of a simplex spanned by the given vertex positions.

        Returns ``(face_dim, face_index, deck_shift)`` for the sub-simplex
        on ``positions`` (ascending position tuple).
        """
        s = self.simplex(k, idx)
        face = tuple(s[p] for p in positions)
        fk = len(face) - 1
        return fk, self.index_of(fk, face), self.shift(s, face)

    # -- cover geometry --------------------------------------------------------

    def top_cofaces(self, k: int, idx: int):
        """Top-simplex indices containing a given k-simplex."""
        if not hasattr(self, "_cofaces"):
            cof = [dict() for _ in range(self.dimension + 1)]
            n = self.dimension
            for t, s in enumerate(self.simplices[n]):
                for k2 in range(n + 1):
                    for face in itertools.combinations(s, k2 + 1):
                        cof[k2].setdefault(self.index_of(k2, face), []).append(t)
            self._cofaces = cof
        return self._cofaces[k].get(idx, [])

    def translation_vector(self, g):
        """Euclidean translation of a deck element, for Euclidean models."""
        if isinstance(self.group, FreeAbelianGroup):
            return tuple(Fraction(x) for x in g)
        if isinstance(self.group, FiniteGroup):
            d = len(next(iter(self.coordinates.values()))) if self.coordinates else 0
            return (Fraction(0),) * d
        raise InputError("complex has no Euclidean model for this deck group")

    def realize(self, k: int, idx: int, g=None):
        """Exact vertex positions of the cover cell (g, simplex).

        Requires coordinates.  Vertex i of the lift sits at
        ``coord(v_i) + vec(g * shift)`` where the shift is the label from
        the simplex anchor to that vertex.
        """
        if self.coordinates is None:
            raise InputError("complex carries no coordinates")
        if g is None:
            g = self.group.identity()
        s = self.simplex(k, idx)
        out = []
        for v in s:
            shift = self.group.identity() if v == s[0] else self.edge_label(s[0], v)
            vec = self.translation_vector(self.group.multiply(g, shift))
            out.append(tuple(Fraction(c) + w for c, w in zip(self.coordinates[v], vec)))
        return out

    # -- documents ---------------------------------------------------------------

    def _skey(self, k, idx):
        return "|".join(self.vertices[v] for v in self.simplex(k, idx))

    def to_document(self) -> dict:
        n = self.dimension
        doc = {
            "dimension": n,
            "group": group_to_document(self.group),
            "vertices": list(self.vertices),
            "simplices": {
                str(k): [[self.vertices[v] for v in s] for s in self.simplices[k]]
                for k in range(n + 1)
            },
            "orientation": {self._skey(n, i): self.orientation[i]
                            for i in sorted(self.orientation)},
            "labels": {self._skey(1, i): self.group.format_element(lbl)
                       for i, lbl in sorted(self.labels.items())},
            "tree": sorted(self._skey(1, i) for i in self.tree),
        }
        if self.coordinates is not None:
            doc["coordinates"] = {
                self.vertices[v]: [fraction_str(c) for c in cs]
                for v, cs in sorted(self.coordinates.items())
            }
        if self.name:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> "QuotientComplex":
        if not isinstance(doc, dict):
            raise InputError("malformed complex document: expected a JSON object, "
                             f"not {type(doc).__name__}")
        try:
            group = group_from_document(doc["group"])
            names = _entry(doc, "vertices", list)
            vid = {name: i for i, name in enumerate(names)}
            if len(vid) != len(names):
                raise InputError("duplicate vertex names")
            n = integer_value(doc["dimension"])
            if not 0 <= n < len(names):
                raise InputError(f"malformed complex document: 'dimension' {n} "
                                 f"is not between 0 and the vertex count minus 1")
            by_dim = _entry(doc, "simplices", dict)
            simplices = []
            for k in range(n + 1):
                rows = by_dim.get(str(k), [])
                dim_list = []
                for row in rows:
                    ids = tuple(vid[x] for x in row)
                    if list(ids) != sorted(set(ids)):
                        raise InputError(f"simplex {row} must be ascending and repeat-free")
                    dim_list.append(ids)
                simplices.append(dim_list)
            c = cls(group, names, simplices, {}, {},
                    name=_entry(doc, "name", str, ""))

            # keys referencing absent simplices are dropped here; the
            # validator reports the underlying missing faces/labels
            edges = c._index[1] if n >= 1 else {}
            orientation = {}
            for key, sign in _entry(doc, "orientation", dict, {}).items():
                parts = tuple(vid[x] for x in key.split("|"))
                if parts in c._index[n]:
                    orientation[c._index[n][parts]] = integer_value(sign)
            labels = {}
            for key, word in _entry(doc, "labels", dict, {}).items():
                a, b = (vid[x] for x in key.split("|"))
                if not isinstance(word, str):
                    raise InputError(f"malformed complex document: the label of "
                                     f"'labels' edge {key!r} must be a word string")
                lbl = group.parse_word(word)
                if a > b:
                    a, b = b, a
                    lbl = group.inverse(lbl)
                if (a, b) in edges:
                    labels[edges[(a, b)]] = lbl
            tree = set()
            for key in _entry(doc, "tree", list, []):
                if not isinstance(key, str):
                    raise InputError("malformed complex document: 'tree' must list "
                                     "edges as 'u|v' strings")
                a, b = sorted(vid[x] for x in key.split("|"))
                if (a, b) in edges:
                    tree.add(edges[(a, b)])
            coords = None
            if "coordinates" in doc:
                coords = {vid[v]: tuple(_parse_fraction(x) for x in row)
                          for v, row in _entry(doc, "coordinates", dict).items()}
                if len(coords) != len(names) or \
                        len({len(row) for row in coords.values()}) != 1:
                    raise InputError("malformed complex document: 'coordinates' must "
                                     "give every vertex the same number of coordinates")
            c.orientation = orientation
            c.labels = labels
            c.tree = frozenset(tree)
            c.coordinates = coords
            return c
        except (KeyError, ValueError, TypeError) as e:
            raise InputError(f"malformed complex document: {e}")


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _entry(doc: dict, key: str, kind: type, default=None):
    """``doc[key]``, or ``default`` when absent and one is given, refused
    with an InputError naming the key unless it is a ``kind``."""
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, kind):
        raise InputError(f"malformed complex document: {key!r} must be "
                         f"{_KINDS[kind]}, not {type(value).__name__}")
    return value


def _parse_fraction(text) -> Fraction:
    return Fraction(str(text))


# ---------------------------------------------------------------------------
# Validation


def validate_quotient(q: QuotientComplex) -> ValidationReport:
    """Check the pseudomanifold, orientation, cocycle and complex conditions."""
    report = ValidationReport()
    n = q.dimension

    # simplicial-complex condition: all faces present.  facets[k][j] holds,
    # per k-simplex, the id of its facet that omits position j (None when
    # that face is missing); the checks below read these ids
    facets = [[]]
    for k in range(1, n + 1):
        cols = [list(map(operator.itemgetter(j), q.simplices[k])) for j in range(k + 1)]
        get = q._index[k - 1].get
        facets.append([list(map(get, zip(*cols[:j], *cols[j + 1:])))
                       for j in range(k + 1)])
        if any(None in col for col in facets[k]):
            for idx, s in enumerate(q.simplices[k]):
                for j in range(k + 1):
                    if facets[k][j][idx] is None:
                        report.add("simplicial-complex condition",
                                   f"face {s[:j] + s[j + 1:]} of {s} is missing")

    # labels present on every edge, tree normalized
    for idx in q.cells(1):
        if idx not in q.labels:
            report.add("label condition", f"edge {q.simplex(1, idx)} has no label")
    for idx in q.tree:
        if q.labels.get(idx) != q.group.identity():
            report.add("tree condition",
                       f"tree edge {q.simplex(1, idx)} has a non-identity label")
    if q.tree:
        if len(q.tree) != len(q.vertices) - 1:
            report.add("tree condition", "tree edge count is not |V| - 1")
        seen = {0}
        changed = True
        while changed:
            changed = False
            for idx in q.tree:
                u, v = q.simplex(1, idx)
                if (u in seen) != (v in seen):
                    seen |= {u, v}
                    changed = True
        if len(seen) != len(q.vertices):
            report.add("tree condition", "tree does not span the vertex set")

    # cocycle condition on 2-simplices (a, b, c), whose facets omitting
    # positions 0, 1, 2 are bc, ac, ab; few distinct label pairs occur, so
    # each product is computed once
    if n >= 2 and not report.kinds() & {"label condition", "simplicial-complex condition"}:
        multiply = functools.cache(q.group.multiply)
        labels = q.labels
        for s, bc, ac, ab in zip(q.simplices[2], *facets[2]):
            if multiply(labels[ab], labels[bc]) != labels[ac]:
                report.add("cocycle condition",
                           f"labels around 2-simplex {s} do not compose")

    # pseudomanifold + orientation coherence: per facet id, the number of
    # oriented top simplices on it and the sum of their induced signs (no
    # label lookups, so this also runs on otherwise-broken documents)
    if n >= 1:
        faces = q.simplices[n - 1]
        count, total = [0] * len(faces), [0] * len(faces)
        signs = [q.orientation.get(idx) for idx in q.cells(n)]
        for s, sign in zip(q.simplices[n], signs):
            if sign not in (1, -1):
                report.add("orientation data",
                           f"top simplex {s} has no +1/-1 orientation sign")
        signs = [sign if sign in (1, -1) else 0 for sign in signs]
        for j, col in enumerate(facets[n]):
            step = (-1) ** j
            for f, sign in zip(col, signs):
                if sign and f is not None:
                    count[f] += 1
                    total[f] += sign * step
        # a face listed twice shares the id of its last listing
        for face, f in zip(faces, map(q._index[n - 1].__getitem__, faces)):
            if count[f] != 2:
                report.add("pseudomanifold condition",
                           f"face {face} lies in {count[f]} top simplices (expected 2)")
            elif total[f] != 0:
                report.add("orientation coherence",
                           f"induced orientations on face {face} agree "
                           "instead of being opposite")
    return report


def orient_pseudomanifold(q: QuotientComplex) -> dict:
    """Coherent orientation signs by dual propagation.

    Raises OrientationError when no coherent assignment exists.  The result
    is deterministic: top simplex 0 gets +1 and signs propagate across
    shared faces in index order.
    """
    n = q.dimension
    face_to_tops = {}
    for idx in q.cells(n):
        for fidx, fsign, _ in q.face_data(n, idx):
            face_to_tops.setdefault(fidx, []).append((idx, fsign))
    signs = {}
    for seed in q.cells(n):
        if seed in signs:
            continue
        signs[seed] = 1
        queue = [seed]
        while queue:
            idx = heapq.heappop(queue)
            for fidx, fsign, _ in q.face_data(n, idx):
                inc = face_to_tops.get(fidx, [])
                if len(inc) != 2:
                    raise OrientationError("not a pseudomanifold: face "
                                           f"{q.simplex(n - 1, fidx)}")
                for other, osign in inc:
                    if other == idx and osign == fsign:
                        continue
                    needed = -signs[idx] * fsign * osign
                    if other in signs:
                        if signs[other] != needed:
                            raise OrientationError(
                                "no coherent orientation exists (first conflict at "
                                f"face {q.simplex(n - 1, fidx)})")
                    else:
                        signs[other] = needed
                        heapq.heappush(queue, other)
    return signs


def permutation_sign(seq) -> int:
    """Sign of the permutation that sorts ``seq``, a tuple of distinct keys."""
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


def euler_characteristic(q: QuotientComplex) -> int:
    return sum((-1) ** k * q.count(k) for k in range(q.dimension + 1))


# ---------------------------------------------------------------------------
# The cover


class PeriodicComplex:
    """A validated quotient complex; cells (g, simplex) of its cover are
    resolved through the edge labels when asked for, never stored."""

    def __init__(self, quotient: QuotientComplex):
        report = validate_quotient(quotient)
        if not report.valid:
            raise InputError("invalid quotient datum: "
                             + "; ".join(v["detail"] for v in report.violations[:3]))
        self.quotient = quotient
        self.group = quotient.group

    def neighbor_across(self, g, top_idx: int, face_idx: int):
        """The other top cell sharing a face with (g, top_idx)."""
        q = self.quotient
        n = q.dimension
        tops = q.top_cofaces(n - 1, face_idx)
        if len(tops) != 2:
            raise InternalError("pseudomanifold violation in neighbor lookup")
        other = tops[0] if tops[1] == top_idx else tops[1]
        if top_idx not in tops:
            raise InputError("face does not bound the given top simplex")
        face = q.simplex(n - 1, face_idx)
        shift_here = q.shift(q.simplex(n, top_idx), face)
        shift_there = q.shift(q.simplex(n, other), face)
        deck = self.group.multiply(self.group.multiply(g, shift_here),
                                   self.group.inverse(shift_there))
        return deck, other

    def fundamental_domain(self) -> "FundamentalDomain":
        return FundamentalDomain(self)


class FundamentalDomain:
    """One chosen lift per quotient simplex, tiling the cover.

    The base top simplex (index 0, the lexicographically least) is lifted
    at the identity; the remaining top lifts are chosen by breadth-first
    search through shared faces, parents resolved in index order.  Every
    lower-dimensional simplex is lifted inside the closure of the lift of
    its least containing top simplex.
    """

    def __init__(self, pc: PeriodicComplex):
        self.pc = pc
        q = pc.quotient
        n = q.dimension
        group = pc.group
        deck_top = {0: group.identity()}
        frontier = [0]
        while frontier:
            nxt = []
            for idx in sorted(frontier):
                for fidx, _, _ in q.face_data(n, idx):
                    nbr_deck, nbr = pc.neighbor_across(deck_top[idx], idx, fidx)
                    if nbr not in deck_top:
                        deck_top[nbr] = nbr_deck
                        nxt.append(nbr)
            frontier = nxt
        if len(deck_top) != q.count(n):
            raise InputError("quotient top cells are not face-connected")
        self.deck = [dict() for _ in range(n + 1)]
        self.deck[n] = deck_top
        for k in range(n):
            for idx in q.cells(k):
                tops = q.top_cofaces(k, idx)
                if not tops:
                    raise InputError(f"simplex of dimension {k} lies in no top simplex")
                host = min(tops)
                shift = q.shift(q.simplex(n, host), q.simplex(k, idx))
                self.deck[k][idx] = q.group.multiply(deck_top[host], shift)

    def chosen_lift(self, k: int, idx: int):
        return self.deck[k][idx]

    def coset_of_cell(self, g, k: int, idx: int):
        """Deck element h with (g, simplex) lying in the translate h*K."""
        return self.pc.group.multiply(g, self.pc.group.inverse(self.deck[k][idx]))


# ---------------------------------------------------------------------------
# Barycentric subdivision


@dataclass
class Subdivision:
    """One or more barycentric subdivisions with the induced chain map.

    ``complex`` is the subdivided quotient; ``cell_vertex[k][idx]`` is the
    new vertex id of the barycenter of the last subdivision's old cell.
    ``levels`` holds one chain map per subdivision, first to last, and
    ``chain_map[k]`` sends an original k-simplex index to its chain in the
    new complex as a list of ``(new_index, coefficient)`` pairs.  For one
    subdivision the chain of s has one term per full flag
    v_0 < e_1 < ... < s (one cell of each dimension), whose coefficient is
    the sign of the order in which the flag adds the vertices of s; the
    maps of iterated subdivisions are composed when ``chain_map`` is first
    read, so a caller that reads only ``complex`` never composes them.
    """

    complex: QuotientComplex
    cell_vertex: list
    levels: list

    @functools.cached_property
    def chain_map(self) -> list:
        return functools.reduce(_compose_chain_maps, self.levels)


SUBDIVISION_BUDGET = 3


def check_subdivision_count(times: int, knob: str, least: int = 0) -> int:
    """``times`` when it lies in ``least``..SUBDIVISION_BUDGET; otherwise an
    error that names ``knob``, the option or document field that set it."""
    if times < least:
        raise InputError(f"{knob} must be >= {least}, not {times}")
    if times > SUBDIVISION_BUDGET:
        raise ResourceError(f"{knob} {times} exceeds the subdivision budget "
                            f"{SUBDIVISION_BUDGET}; deep subdivisions explode "
                            "the cell count")
    return times


def barycentric_subdivide(q: QuotientComplex, times: int = 1) -> Subdivision:
    """Iterated barycentric subdivision with label and orientation transport.

    New vertices are the barycenters of old cells and new simplices are the
    flags of old cells.  An edge from the barycenter of a face to the
    barycenter of a containing cell inherits the inverse anchor shift, so
    cover adjacency is preserved.  The chain map sends a cell to its full
    flags, each signed by the permutation of the cell's vertices it induces
    (Munkres, *Elements of Algebraic Topology*, section 17); orientations
    are transported through it, which keeps the Euler characteristic and
    the pseudomanifold property intact.
    """
    check_subdivision_count(times, "subdivision count", least=1)
    if q.dimension < 1:
        raise InputError("subdivision needs a complex of dimension at least 1")
    levels = []
    for _ in range(times):
        q, cell_vertex, chain_map = _subdivide_once(q)
        levels.append(chain_map)
    return Subdivision(q, cell_vertex, levels)


def _compose_chain_maps(first, second):
    out = []
    for k in range(len(first)):
        table = {}
        for idx, terms in first[k].items():
            acc: dict[int, int] = {}
            for mid, c1 in terms:
                for new, c2 in second[k][mid]:
                    acc[new] = acc.get(new, 0) + c1 * c2
            table[idx] = [(i, c) for i, c in sorted(acc.items()) if c]
        out.append(table)
    return out


def _subdivide_once(q: QuotientComplex):
    """One barycentric subdivision, read off the flag table of ``q``:
    ``(complex, cell_vertex, chain_map)`` as in :class:`Subdivision`.

    The barycenter of old k-cell ``idx`` is new vertex ``offset[k] + idx``,
    so a face always has a smaller id than its cofaces and a flag is an
    ascending tuple of ids.  Extending every flag by the proper cofaces of
    its last cell, in ascending id, lists each dimension's simplices in
    lexicographic order.  A flag that gains one vertex per step from a
    vertex up to a k-cell is a full flag of that cell; its sign is the sign
    of the order in which it adds the cell's vertices, accumulated one step
    at a time.
    """
    n = q.dimension
    group = q.group
    offset = list(itertools.accumulate(map(q.count, range(n + 1)), initial=0))
    names = [q.vertex_name(s[0]) for s in q.simplices[0]]
    names += ["(" + "+".join(map(q.vertex_name, s)) + ")"
              for k in range(1, n + 1) for s in q.simplices[k]]

    # cofaces[c]: (coface id, step sign, label of the new edge c -> coface).
    # When c is the facet of a k-cell that omits the vertex at position j,
    # that vertex comes after k - j of the facet's vertices, so the step
    # sign is (-1)^(k - j); combinations() omit positions k, k-1, ..., 0
    # in turn, so it is (-1)^t for the t-th facet.  The step sign is 0 for
    # a face of lower dimension.  The edge from the barycenter of tau to
    # that of rho carries shift(rho, tau)^-1, which depends only on the
    # first vertex of tau.
    inverse = functools.cache(group.inverse)
    edges = q._index[1]
    ident = group.identity()
    cofaces = [[] for _ in range(offset[-1])]
    coords = None if q.coordinates is None else {}
    for k in range(n + 1):
        for idx, s in enumerate(q.simplices[k]):
            r = offset[k] + idx
            shifts = [ident] + [q.labels[edges[s[0], v]] for v in s[1:]]
            if coords is not None:
                pts = [[Fraction(c) + w for c, w in
                        zip(q.coordinates[v], q.translation_vector(g))]
                       for v, g in zip(s, shifts)]
                coords[r] = tuple(sum(col) / Fraction(k + 1) for col in zip(*pts))
            back = dict(zip(s, map(inverse, shifts)))
            for m in range(k):
                faces = q._index[m]
                for t, f in enumerate(itertools.combinations(s, m + 1)):
                    step = (-1) ** t if m == k - 1 else 0
                    cofaces[offset[m] + faces[f]].append((r, step, back[f[0]]))

    # full[c]: (row, sign) of every full flag ending at cell c
    rows = [(c,) for c in range(offset[-1])]
    signs = [1] * offset[1] + [0] * (offset[-1] - offset[1])
    full = [[(c, 1)] if c < offset[1] else [] for c in range(offset[-1])]
    simplices_by_dim = [rows]
    for _ in range(n):
        longer, longer_signs = [], []
        for flag, sign in zip(rows, signs):
            for r, step, _ in cofaces[flag[-1]]:
                if sign * step:
                    full[r].append((len(longer), sign * step))
                longer.append(flag + (r,))
                longer_signs.append(sign * step)
        rows, signs = longer, longer_signs
        simplices_by_dim.append(rows)
    chain_map = [{idx: full[offset[k] + idx] for idx in q.cells(k)}
                 for k in range(n + 1)]

    new = QuotientComplex(group, names, simplices_by_dim, {}, {}, coordinates=coords,
                          name=(q.name + "^sd") if q.name else "")
    new.labels = dict(enumerate(lbl for cof in cofaces for _, _, lbl in cof))
    new.orientation = {row: q.orientation[idx] * c
                       for idx in q.cells(n) for row, c in chain_map[n][idx]}
    cell_vertex = [list(range(offset[k], offset[k + 1])) for k in range(n + 1)]
    return new, cell_vertex, chain_map


def gauge_normalize(q: QuotientComplex) -> QuotientComplex:
    """Re-gauge labels so a BFS spanning tree carries identity labels.

    This re-parametrizes the cover (an isomorphic covering) and must not be
    applied to complexes whose coordinates encode labels as translations.
    """
    if q.coordinates is not None:
        raise InputError("gauge normalization would break the Euclidean model")
    group = q.group
    adj = {}
    for eidx, (u, v) in enumerate(q.simplices[1]):
        adj.setdefault(u, []).append((v, eidx))
        adj.setdefault(v, []).append((u, eidx))
    h = {0: group.identity()}
    tree = set()
    frontier = [0]
    while frontier:
        nxt = []
        for u in sorted(frontier):
            for v, eidx in sorted(adj.get(u, [])):
                if v not in h:
                    h[v] = group.multiply(h[u], q.edge_label(u, v))
                    tree.add(eidx)
                    nxt.append(v)
        frontier = nxt
    if len(h) != len(q.vertices):
        raise InputError("quotient 1-skeleton is not connected")
    labels = {}
    for eidx, (u, v) in enumerate(q.simplices[1]):
        labels[eidx] = group.multiply(
            group.multiply(h[u], q.labels[eidx]), group.inverse(h[v]))
    out = QuotientComplex(group, q.vertices, q.simplices, q.orientation,
                          labels, tree, None, name=q.name)
    return out
