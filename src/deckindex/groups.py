"""Deck groups with exact word arithmetic.

Four families are supported, each with a computable canonical form so that
element equality, word length and ball enumeration are exact:

* free abelian groups (elements are exponent vectors),
* free groups (freely reduced words),
* surface groups of genus >= 2 with the standard one-relator presentation
  (Dehn-reduced words, ties resolved by shortlex descent on half-relator
  replacements; checked canonical only through sphere 6, see
  :class:`SurfaceGroup`),
* finite groups given by a multiplication table (elements are table
  indices; canonical words are shortlex geodesics from a BFS).

Elements are plain hashable values: tuples of ints for the infinite kinds,
ints for the finite kind.  Words are sequences of signed integer tokens,
``+i``/``-i`` for the i-th generator (1-based) and its inverse; the public
string form uses generator names with a ``-`` prefix for inverses, e.g.
``"a -b a"``.

A group's value is fixed at construction.  Two kinds of state are added
later: token tables (the token of each name, the name and the element of
each signed generator), derived once on first use, and the largest
:class:`IndexedBall` asked of the group, replaced only by a larger one.
Threads may share a group: a race can build a ball twice or
keep the smaller of two, but every ball handed out has at least the radius
asked for.

:class:`IndexedBall` is the one ball enumerator: it numbers a ball's
elements in BFS order, so the flow networks and the isoperimetric probe
work on integer ids, and ``ball``, ``sphere`` and ``ball_with_distances``
read an id prefix of it.  Its BFS keys a free or surface element by the
integer code of its word (:class:`WordCodes`), so a product is one integer
cancel or append, and a surface product is rewritten only when its last
half-relator window is flagged.  Free-abelian and finite elements are
their own keys, and their products are the kind's ``_append_token``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property

from .errors import InputError, ResourceError

Token = int
Word = tuple[Token, ...]


def _free_reduce(tokens) -> list[Token]:
    out: list[Token] = []
    for t in tokens:
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    return out


def _invert_word(tokens) -> list[Token]:
    return [-t for t in reversed(tokens)]


def _shortlex_key(tokens):
    # a < a^-1 < b < b^-1 < ...
    return (len(tokens), tuple(2 * abs(t) + (t < 0) for t in tokens))


class MarkedGroup:
    """Common interface of the supported deck-group kinds."""

    kind: str
    generator_names: tuple[str, ...]
    amenable: bool
    ball_budget: int
    _ball: IndexedBall | None = None  # the largest asked of indexed_ball

    # -- word <-> token plumbing ------------------------------------------

    @cached_property
    def _token_table(self) -> dict:
        """Signed token of each name: ``x`` names generator x, ``-x`` its
        inverse (so a name starting with ``-`` is read as an inverse only),
        and the first of two equal names wins."""
        table: dict = {}
        for i, name in enumerate(self.generator_names, 1):
            if not name.startswith("-"):
                table.setdefault(name, i)
            table.setdefault(f"-{name}", -i)
        return table

    @cached_property
    def _name_table(self) -> dict:
        """Name of each signed token: ``x`` for generator x, ``-x`` for x^-1."""
        return {t: self.generator_names[t - 1] if t > 0
                else f"-{self.generator_names[-t - 1]}" for t in self._signed_tokens()}

    def parse_word(self, text: str):
        """Group element of a word document string such as ``"a -b a"``."""
        table = self._token_table
        try:
            tokens = [table[p] for p in text.split()]
        except KeyError as e:
            raise InputError(f"unknown generator symbol {e.args[0]!r} "
                             f"(declared: {', '.join(self.generator_names)})")
        return self.element_of(tokens)

    def format_element(self, element) -> str:
        return " ".join(map(self._name_table.__getitem__, self.element_word(element)))

    # -- group structure (implemented per kind) ---------------------------

    def element_of(self, tokens):
        raise NotImplementedError

    def element_word(self, element) -> Word:
        """Canonical token word of an element (a geodesic representative)."""
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def generators(self) -> list:
        return [self.element_of([i + 1]) for i in range(len(self.generator_names))]

    def length(self, element) -> int:
        return len(self.element_word(element))

    def distance(self, a, b) -> int:
        return self.length(self.multiply(self.inverse(a), b))

    @cached_property
    def _token_elements(self) -> dict:
        return {t: self.element_of([t]) for t in self._signed_tokens()}

    def multiply_token(self, a, token: Token):
        return self._append_token(a, token)  # each kind defines _append_token

    # word kinds set this to the tables of their integer word codes
    _word_codes: WordCodes | None = None

    # -- balls -------------------------------------------------------------

    def _signed_tokens(self):
        n = len(self.generator_names)
        return [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]

    def check_radius(self, radius: int) -> None:
        if radius < 0:
            raise InputError("radius must be nonnegative")
        if radius > self.ball_budget:
            raise ResourceError(
                f"radius {radius} exceeds the ball budget {self.ball_budget} "
                f"for kind {self.kind!r}; raise 'ball_budget' in the group "
                "document")

    def indexed_ball(self, radius: int) -> IndexedBall:
        """An indexed ball of radius at least ``radius``.

        The group keeps the largest ball asked of it; that ball serves every
        smaller radius, since a ball is a prefix of the BFS order.
        """
        self.check_radius(radius)
        ball = self._ball
        if ball is None or ball.radius < radius:
            ball = self._ball = IndexedBall(self, radius)
        return ball

    def ball_with_distances(self, radius: int) -> dict:
        """Exact word-metric ball as ``{element: distance}`` in BFS order."""
        ball = self.indexed_ball(radius)
        end = ball.ends[radius]
        return dict(zip(ball.elements[:end], ball.dist[:end]))

    def ball(self, radius: int) -> set:
        return set(self.ball_with_distances(radius))

    def sphere(self, radius: int) -> set:
        return {g for g, d in self.ball_with_distances(radius).items() if d == radius}

    # -- Folner data --------------------------------------------------------

    def folner_scheme(self, neighborhood_radius: int = 1):
        """Folner scheme for amenable kinds, ``None`` otherwise."""
        return None

    def sort_key(self, element):
        return _shortlex_key(self.element_word(element))

    # groups are immutable value objects; equality is structural
    def _signature(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._signature() == other._signature()

    def __hash__(self):
        return hash((type(self).__name__, self._signature()))


class FreeAbelianGroup(MarkedGroup):
    """Z^k with the standard generating set; elements are exponent tuples."""

    kind = "free-abelian"
    amenable = True

    def __init__(self, rank: int, names=None, ball_budget: int = 16):
        if rank < 1:
            raise InputError("free-abelian rank must be >= 1")
        self.rank = rank
        self.generator_names = tuple(names) if names else self._default_names(rank)
        if len(self.generator_names) != rank:
            raise InputError("generator name count does not match rank")
        self.ball_budget = ball_budget

    @staticmethod
    def _default_names(rank):
        if rank <= 4:
            return tuple("abcd"[:rank])
        return tuple(f"x{i + 1}" for i in range(rank))

    def element_of(self, tokens):
        v = [0] * self.rank
        for t in tokens:
            v[abs(t) - 1] += 1 if t > 0 else -1
        return tuple(v)

    def element_word(self, element) -> Word:
        out = []
        for i, e in enumerate(element):
            out.extend([(i + 1) if e > 0 else -(i + 1)] * abs(e))
        return tuple(out)

    def identity(self):
        return (0,) * self.rank

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _append_token(self, a, token: Token):
        v = list(a)
        v[abs(token) - 1] += 1 if token > 0 else -1
        return tuple(v)

    def inverse(self, a):
        return tuple(-x for x in a)

    def length(self, element) -> int:
        return sum(abs(e) for e in element)

    def folner_scheme(self, neighborhood_radius: int = 1):
        return BoxFolnerScheme(self, neighborhood_radius)

    def _signature(self):
        return (self.rank, self.generator_names)


class FreeGroup(MarkedGroup):
    """Free group of finite rank; elements are freely reduced token words."""

    kind = "free"
    amenable = False

    def __init__(self, rank: int, names=None, ball_budget: int = 8):
        if rank < 1:
            raise InputError("free rank must be >= 1")
        self.rank = rank
        self.generator_names = tuple(names) if names else FreeAbelianGroup._default_names(rank)
        if len(self.generator_names) != rank:
            raise InputError("generator name count does not match rank")
        self.ball_budget = ball_budget

    def element_of(self, tokens):
        return tuple(_free_reduce(tokens))

    def element_word(self, element) -> Word:
        return element

    def identity(self):
        return ()

    def multiply(self, a, b):
        return tuple(_free_reduce(list(a) + list(b)))

    def _append_token(self, a, token: Token):
        """``multiply(a, token)``: a reduced word cancels or keeps one token."""
        if a and a[-1] == -token:
            return a[:-1]
        return a + (token,)

    @cached_property
    def _word_codes(self) -> WordCodes:
        return WordCodes(self._signed_tokens(), (), 0)

    def inverse(self, a):
        return tuple(_invert_word(a))

    def _signature(self):
        return (self.rank, self.generator_names)


class SurfaceGroup(MarkedGroup):
    """Genus-g surface group, one relator [a1,b1]...[ag,bg], g >= 2.

    Words are kept Dehn-reduced: no subword longer than half of any cyclic
    rotation of the relator or its inverse survives, and subwords of exactly
    half length are replaced by the complementary half whenever that makes
    the word shortlex-smaller.  The fixed points of this rewriting are not a
    normal form in general: two distinct fixed points can name one element,
    and a fixed point need not be geodesic.  Canonicity is verified only
    through sphere 6: the genus-2 sphere sizes match Cannon's growth series
    through radius 6, and at radius 7 they do not (930330 against 930328).
    """

    kind = "surface"
    amenable = False

    def __init__(self, genus: int, names=None, ball_budget: int = 8):
        if genus < 2:
            raise InputError("surface genus must be >= 2")
        self.genus = genus
        if names:
            self.generator_names = tuple(names)
        else:
            self.generator_names = tuple(
                x for i in range(genus) for x in (f"a{i + 1}", f"b{i + 1}"))
        if len(self.generator_names) != 2 * genus:
            raise InputError("generator name count does not match genus")
        self.ball_budget = ball_budget
        relator = [t for a in range(1, 2 * genus, 2) for t in (a, a + 1, -a, -a - 1)]
        self._half = 2 * genus  # half of the relator length 4g
        rotations = [tuple(base[s:] + base[:s])
                     for base in (relator, _invert_word(relator)) for s in range(len(base))]
        self._long_index: dict[tuple, list[tuple]] = {}
        self._half_index: dict[tuple, list[tuple]] = {}
        for rho in rotations:
            self._long_index.setdefault(rho[: self._half + 1], []).append(rho)
            self._half_index.setdefault(rho[: self._half], []).append(rho)

    def _canonical(self, tokens) -> Word:
        w = _free_reduce(tokens)
        h = self._half
        while True:
            # Shrink any match strictly longer than half a relator cycle.
            candidates = []
            for i in range(len(w) - h):
                key = tuple(w[i:i + h + 1])
                for rho in self._long_index.get(key, ()):
                    ell = h + 1
                    while ell < len(rho) and i + ell < len(w) and w[i + ell] == rho[ell]:
                        ell += 1
                    repl = _invert_word(rho[ell:])
                    candidates.append(_free_reduce(w[:i] + repl + w[i + ell:]))
            if candidates:
                w = min(candidates, key=_shortlex_key)
                continue
            # Half-length swaps, accepted only on strict shortlex descent.
            best = None
            for i in range(len(w) - h + 1):
                key = tuple(w[i:i + h])
                for rho in self._half_index.get(key, ()):
                    cand = _free_reduce(w[:i] + _invert_word(rho[h:]) + w[i + h:])
                    if _shortlex_key(cand) < _shortlex_key(w):
                        if best is None or _shortlex_key(cand) < _shortlex_key(best):
                            best = cand
            if best is None:
                return tuple(w)
            w = best

    def _append_token(self, a, token: Token):
        """``_canonical(a + (token,))`` for a fixed point ``a`` of
        ``_canonical`` (every element is one), checking only the end.

        Exact: a prefix of a fixed point is one, which settles a cancelling
        token.  Otherwise ``w = a + (token,)`` is reduced.  A rewrite inside
        ``a`` would rewrite ``a``: appending a token changes no shortlex
        comparison decided inside ``a``, unless a half swap ending ``a``
        cancels the token, and then that window and the token are a long
        match.  A long match ending at the token ends with ``h`` tokens
        that start the next rotation, whose swap cancels against the token
        before them.  So only a descending swap of the last ``h`` tokens
        can rewrite ``w``; without one, ``w`` is a fixed point.
        """
        if a and a[-1] == -token:
            return a[:-1]
        w = a + (token,)
        h = self._half
        for rho in self._half_index.get(w[-h:], ()):
            swapped = _free_reduce(list(w[:-h]) + _invert_word(rho[h:]))
            if _shortlex_key(swapped) < _shortlex_key(w):
                return self._canonical(w)
        return w

    @cached_property
    def _word_codes(self) -> WordCodes:
        # a product needs the rewrite only if its last h tokens are a half
        # relator, the window _append_token checks
        return WordCodes(self._signed_tokens(), self._half_index, self._half)

    def element_of(self, tokens):
        return self._canonical(list(tokens))

    def element_word(self, element) -> Word:
        return element

    def identity(self):
        return ()

    def multiply(self, a, b):
        return self._canonical(list(a) + list(b))

    def inverse(self, a):
        return self._canonical(_invert_word(a))

    def _signature(self):
        return (self.genus, self.generator_names)


class FiniteGroup(MarkedGroup):
    """Finite group given by a multiplication table.

    ``table[i][j]`` is the product of elements ``i`` and ``j``.  The marked
    generating set must generate; canonical words are shortlex geodesics
    computed once by BFS, so the word metric is exact.
    """

    kind = "finite"
    amenable = True

    def __init__(self, table, generator_ids=None, names=None, ball_budget: int = 64):
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise InputError("multiplication table must be square and nonempty")
        if any(not (0 <= x < n) for row in table for x in row):
            raise InputError("multiplication table entries out of range")
        self.table = tuple(tuple(row) for row in table)
        self.order = n
        ident = None
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise InputError("multiplication table has no identity element")
        self._identity = ident
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                            raise InputError("multiplication table is not associative")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident and self.table[b][a] == ident:
                    inv[a] = b
        if any(v is None for v in inv):
            raise InputError("multiplication table has a non-invertible element")
        self._inverse = tuple(inv)
        if generator_ids is None:
            generator_ids = [g for g in range(n) if g != ident] or [ident]
        self.generator_ids = tuple(generator_ids)
        if any(not 0 <= g < n for g in self.generator_ids):
            raise InputError("generator ids out of range")
        if names:
            self.generator_names = tuple(names)
        else:
            self.generator_names = tuple(f"g{g}" for g in self.generator_ids)
        if len(self.generator_names) != len(self.generator_ids):
            raise InputError("generator name count does not match generator list")
        self.ball_budget = ball_budget
        self._words = self._geodesic_words()
        if len(self._words) != n:
            raise InputError("marked generators do not generate the group")

    def _geodesic_words(self):
        words = {self._identity: ()}
        frontier = [self._identity]
        signed = self._signed_tokens()
        while frontier:
            nxt = []
            for g in frontier:
                base = words[g]
                for t in sorted(signed, key=lambda t: 2 * abs(t) + (t < 0)):
                    h = self._append_token(g, t)
                    if h not in words:
                        words[h] = base + (t,)
                        nxt.append(h)
            frontier = nxt
        return words

    def _append_token(self, a, token: Token):
        g = self.generator_ids[abs(token) - 1]
        if token < 0:
            g = self._inverse[g]
        return self.table[a][g]

    def element_of(self, tokens):
        e = self._identity
        for t in tokens:
            e = self._append_token(e, t)
        return e

    def element_word(self, element) -> Word:
        return self._words[element]

    def identity(self):
        return self._identity

    def multiply(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self._inverse[a]

    def elements(self):
        return range(self.order)

    def folner_scheme(self, neighborhood_radius: int = 1):
        return WholeGroupFolnerScheme(self, neighborhood_radius)

    def _signature(self):
        return (self.table, self.generator_ids, self.generator_names)


def cyclic_group(order: int, ball_budget: int = 64) -> FiniteGroup:
    if order < 1:
        raise InputError("cyclic order must be >= 1")
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    return FiniteGroup(table, generator_ids=[1 % order], names=["t"],
                       ball_budget=ball_budget)


def trivial_group(ball_budget: int = 64) -> FiniteGroup:
    return FiniteGroup([[0]], generator_ids=[0], names=["e"],
                       ball_budget=ball_budget)


# ---------------------------------------------------------------------------
# Indexed balls


class WordCodes:
    """Integer codes of reduced words, for the ball BFS of a word kind.

    The code of a word is its digit string in base ``base = 2n + 1``, with
    digit ``k + 1`` for the k-th signed token (``_signed_tokens`` order).
    Every digit is nonzero, so a code names exactly one word, whatever its
    length.  Cancelling the last token of code ``c`` is ``c // base``, which
    applies when ``c % base`` is ``undo[k]``, the digit of the inverse of
    token k; appending token k is ``c * base + k + 1``.  ``flagged`` holds
    the codes of the words ``keys`` of length ``h``: an appended product
    ``p`` whose last ``h`` tokens are one of them, ``p % window in
    flagged``, may need the kind's rewrite.
    """

    def __init__(self, tokens, keys, h: int):
        self.base = len(tokens) + 1
        self.digit = {t: k + 1 for k, t in enumerate(tokens)}
        self.undo = [self.digit[-t] for t in tokens]
        self.window = self.base ** h
        self.flagged = frozenset(self.encode(key) for key in keys)

    def encode(self, word) -> int:
        c = 0
        for t in word:
            c = c * self.base + self.digit[t]
        return c


class IndexedBall:
    """Word-metric ball whose elements carry integer ids in BFS order.

    ``elements[i]`` is the element with id ``i`` and ``dist[i]`` its word
    length.  Ids grow with the distance, so for every ``r <= radius`` the
    ball of radius ``r`` is the id prefix ``range(ends[r])``.
    ``rows[k][i]`` is the id of ``elements[i]`` times the k-th signed
    generator token (in ``_signed_tokens`` order), or -1 when that product
    lies outside the ball.  ``outside`` counts the distinct outside
    products, which form the sphere of radius ``radius + 1``.

    The BFS keys an element of a free or surface group by its
    :class:`WordCodes` code, so a product is integer arithmetic: the
    cancel or the append of one digit.  Only a product flagged by its last
    half-relator window goes through ``_append_token``, whose result is
    encoded (840 of the 178,312 products of the genus-2 ball(5), 448 of
    them rewritten).  Each element's tuple is built once, when it joins
    the ball.  Free-abelian and finite elements are their own keys, and
    their products are ``_append_token``.

    A plain append (unflagged, no cancel) from the last sphere is counted,
    its row entry -1, without a lookup.  This is exact: a word is as long
    as its ball distance (a product adds at most one token, and a word's
    prefixes reach it), so such an append is longer than every ball word,
    and distinct (code, digit) pairs give distinct codes.  Only flagged
    outside products are kept in a set (336 of the 133,288 of the genus-2
    ball(5)); one equal to a plain append is counted once.
    """

    def __init__(self, group: MarkedGroup, radius: int):
        group.check_radius(radius)
        tokens = group._signed_tokens()
        append = group._append_token
        codes = group._word_codes
        identity = group.identity()
        if codes is None:  # the element is its own key
            base, key, undo = 0, identity, [None] * len(tokens)
        else:
            base, key, undo = codes.base, 0, codes.undo
            window, flagged, encode = codes.window, codes.flagged, codes.encode
        ids = {key: 0}
        keys, elements, dist = [key], [identity], [0]
        rows: list[list[int]] = [[] for _ in tokens]
        steps = list(zip(rows, tokens, range(1, len(tokens) + 1), undo))
        outside = set()
        plain = 0  # the last sphere's plain appends, all outside and distinct
        i = 0
        while i < len(elements):
            g, d, c = elements[i], dist[i], keys[i]
            if base:
                last, head = c % base, c * base
            for row, t, digit, inverse in steps:
                h = None  # the product's element, unless read off g below
                if not base:
                    p = h = append(g, t)
                elif last == inverse:
                    p = c // base
                else:
                    p = head + digit
                    if p % window in flagged:
                        h = append(g, t)
                        p = encode(h)
                    elif d == radius:
                        plain += 1
                        row.append(-1)
                        continue
                j = ids.get(p)
                if j is None:
                    if d == radius:
                        outside.add(p)
                        j = -1
                    else:
                        if h is None:  # a cancel shrinks the code, an append grows it
                            h = g[:-1] if p < c else g + (t,)
                        j = ids[p] = len(elements)
                        keys.append(p)
                        elements.append(h)
                        dist.append(d + 1)
                row.append(j)
            i += 1
        ends = [bisect_right(dist, r) for r in range(radius + 1)]  # dist ascends
        if base:  # drop the flagged products counted as plain appends
            first = ends[radius - 1] if radius else 0
            outside = [p for p in outside if ids.get(p // base, -1) < first
                       or p // base % base == undo[p % base - 1]
                       or p % window in flagged]
        self.radius = radius
        self.elements = elements
        self.dist = dist
        self.rows = rows
        self.ends = ends
        self.outside = plain + len(outside)


# ---------------------------------------------------------------------------
# Folner schemes


class BoxFolnerScheme:
    """Boxes F_t = [-t, t]^k in a free abelian group, a nested family of
    finite sets witnessing amenability.

    ``ratio(t)`` is the outer r-collar ratio |{x not in F : d(x, F) <= r}| /
    |F|, an exact rational.  It equals the edge-boundary count divided by
    the box volume up to lower-order terms and decays like 1/t.
    """

    def __init__(self, group: FreeAbelianGroup, radius: int = 1):
        if radius < 1:
            raise InputError("neighborhood radius must be a positive integer")
        self.group = group
        self.radius = radius

    def set_at(self, t: int) -> frozenset:
        if t < 1:
            raise InputError("scheme index must be >= 1")
        side = range(-t, t + 1)
        return frozenset(itertools.product(side, repeat=self.group.rank))

    def ratio(self, t: int) -> Fraction:
        """Collar ratio counted from the word metric: the distance of x to
        the box is its L1 excess sum(max(|x_i| - t, 0)).  Per coordinate,
        2t + 1 values have excess 0 and two values have each positive
        excess, so the counts by excess are a k-fold convolution over
        0..radius, and the collar is every excess from 1 to radius."""
        if t < 1:
            raise InputError("scheme index must be >= 1")
        r = self.radius
        side = [2 * t + 1] + [2] * r
        counts = [1] + [0] * r
        for _ in range(self.group.rank):
            counts = [sum(counts[j] * side[e - j] for j in range(e + 1))
                      for e in range(r + 1)]
        return Fraction(sum(counts[1:]), counts[0])


class WholeGroupFolnerScheme:
    """F_t = G for a finite group; the collar is empty at every index."""

    def __init__(self, group: FiniteGroup, radius: int = 1):
        self.group = group
        self.radius = radius

    def set_at(self, t: int) -> frozenset:
        return frozenset(self.group.elements())

    def ratio(self, t: int) -> Fraction:
        return Fraction(0)


def folner_average(scheme: BoxFolnerScheme | WholeGroupFolnerScheme, f,
                   t: int) -> Fraction:
    """Exact average over F_t of a bounded class function c + finite part:
    c |F_t| plus the masses of the support that lie in F_t."""
    members = scheme.set_at(t)
    total = f.constant * len(members) + sum(
        v for g, v in f.finite.items() if g in members)
    return Fraction(total, len(members))


# ---------------------------------------------------------------------------
# Group documents


def integer_value(v) -> int:
    """An integral document value as an int; a fractional number is
    rejected, never truncated."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def group_from_document(doc: dict) -> MarkedGroup:
    """Build a group from its JSON specification block."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("group block must be an object with a 'kind' tag")
    kind = doc["kind"]
    try:
        # each constructor keeps its own default budget unless the document
        # states one
        budget = {}
        if doc.get("ball_budget") is not None:
            budget["ball_budget"] = integer_value(doc["ball_budget"])
            if budget["ball_budget"] < 0:
                raise InputError("'ball_budget' must be nonnegative")
        names = doc.get("generators")
        if names is not None and not (
                isinstance(names, list)
                and all(isinstance(n, str) and n for n in names)
                and len(set(names)) == len(names)):
            raise InputError("'generators' must be a list of distinct names")
        if kind == "free-abelian":
            return FreeAbelianGroup(integer_value(doc["rank"]), names=names, **budget)
        if kind == "free":
            return FreeGroup(integer_value(doc["rank"]), names=names, **budget)
        if kind == "surface":
            return SurfaceGroup(integer_value(doc["genus"]), names=names, **budget)
        if kind == "finite":
            if "cyclic" in doc:
                return cyclic_group(integer_value(doc["cyclic"]), **budget)
            if "trivial" in doc:
                return trivial_group(**budget)
            return FiniteGroup(doc["table"], generator_ids=doc.get("generator_ids"),
                               names=names, **budget)
    except KeyError as e:
        raise InputError(f"group block of kind {kind!r} lacks {e}")
    except (TypeError, ValueError) as e:
        raise InputError(f"malformed group block: {e}")
    raise InputError(f"unsupported group kind {kind!r}; supported kinds: "
                     "free-abelian, free, surface, finite")


def group_to_document(group: MarkedGroup) -> dict:
    if isinstance(group, FreeAbelianGroup):
        return {"kind": "free-abelian", "rank": group.rank,
                "generators": list(group.generator_names)}
    if isinstance(group, FreeGroup):
        return {"kind": "free", "rank": group.rank,
                "generators": list(group.generator_names)}
    if isinstance(group, SurfaceGroup):
        return {"kind": "surface", "genus": group.genus,
                "generators": list(group.generator_names)}
    if isinstance(group, FiniteGroup):
        return {"kind": "finite", "table": [list(r) for r in group.table],
                "generator_ids": list(group.generator_ids),
                "generators": list(group.generator_names)}
    raise InputError("unknown group object")
