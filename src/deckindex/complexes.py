"""Periodic oriented simplicial pseudomanifolds given by finite quotient data.

A :class:`QuotientComplex` is a finite simplicial complex together with a
deck group, a group label on every oriented edge (the holonomy description
of a covering), an orientation sign on every top simplex and a spanning
tree on which labels are normalized to the identity.  The covering space is
never stored; cells of the cover are pairs ``(g, simplex)`` and adjacency
is resolved through the edge labels, so any finite part of the cover can
be read on demand.

Simplices are stored as ascending rows of vertex ids, one ``(N_k, k + 1)``
int64 array per dimension.  With that normalization the j-th face of a
simplex is again ascending and the boundary coefficient is exactly
``(-1)**j``, which keeps all chain-level bookkeeping free of permutation
parities.  ``simplices`` (ascending tuples) and the tuple -> id index are
views of the arrays, built the first time they are read.  Edge labels and
top-simplex signs are integer tables too: ``labels`` and ``orientation``
are mappings over one id per cell into a table of the distinct values.
Validation and subdivision run on these arrays and ids themselves.

Incidence is one face table per complex: ``facets[k][i, j]`` is the id of
the facet of k-simplex i that omits position j (-1 when it is missing),
read off the flags for a subdivision and searched once from the rows
otherwise, and ``cofacets`` is its transpose.  Validation, face data,
orientation, the fundamental domain, the chain boundaries and subdivision
all read it.  Both depend only on the read-only rows; deck shifts are read
from the current labels at call time, since labels, orientation and tree
may be set after construction, and a Euclidean cover's integer ``lattice``
on its first read.  numpy is imported inside the functions that use it.
"""

from __future__ import annotations

import collections.abc
import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalError, OrientationError, ResourceError
from .geometry import numerators
from .groups import (FreeAbelianGroup, FiniteGroup, group_from_document, group_to_document,
                     integer_value, rational_row)
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
    vertices : sequence of str
        Vertex names; vertex ids are positions in this sequence, and every
        simplex uses ids from ``0`` to ``len(vertices) - 1``.  A sequence is
        kept as given and never changed; any other iterable is listed.
    simplices_by_dim : list
        ``simplices_by_dim[k]`` lists the k-simplices as ascending tuples
        of vertex ids, or holds them as an ``(N_k, k + 1)`` integer array.
        Dimension 0 must enumerate all vertices, and no simplex may be
        listed twice.
    orientation : mapping
        Sign (+1/-1) per top-simplex id.
    labels : mapping
        Deck label per edge id, for the ascending direction of the edge.
        Both are copied into integer tables (:class:`_CellValues`), also
        when set later, and read back as mappings.
    tree : set
        Edge indices of the spanning tree used for label normalization.
        May be empty for derived complexes.
    coordinates : dict, optional
        Exact rational coordinates (ints or Fractions) per vertex id, for a
        Euclidean model (flat torus covers, realized finite complexes).
    """

    def __init__(self, group, vertices, simplices_by_dim, orientation, labels,
                 tree=frozenset(), coordinates=None, name=""):
        self.group = group
        self.vertices = vertices if isinstance(vertices, collections.abc.Sequence) \
            else list(vertices)
        self._rows = [_row_array(dim_list, k) for k, dim_list in enumerate(simplices_by_dim)]
        self.dimension = len(self._rows) - 1
        self._check_basic_shape()
        self.orientation = orientation
        self.labels = labels
        self.tree = frozenset(tree)
        self.coordinates = dict(coordinates) if coordinates else None
        self.name = name

    # -- basic structure ----------------------------------------------------

    def _check_basic_shape(self):
        import numpy as np
        n = len(self.vertices)
        if not self._rows or len(self._rows[0]) != n:
            raise InputError("dimension 0 must enumerate all vertices")
        for k, rows in enumerate(self._rows):
            outside = (rows < 0) | (rows >= n)
            if outside.any():
                raise InputError(f"vertex id {int(rows[outside][0])} in dimension "
                                 f"{k} is outside 0..{n - 1}")
            # each column of vertex ids below the next, or the first offender named
            descents = (rows[:, :-1] >= rows[:, 1:]).any(axis=1)
            if descents.any():
                raise _malformed_simplex(tuple(rows[descents.argmax()].tolist()), k)
            # unique rows keep every lookup one-to-one; rows that come
            # strictly ascending, as a subdivision's do, need no sort
            keys = _row_keys(rows)
            ordered = keys if (keys[1:] > keys[:-1]).all() else np.sort(keys)
            twice = ordered[1:][ordered[1:] == ordered[:-1]]
            if len(twice):
                s = tuple(rows[(keys == twice[0]).argmax()].tolist())
                raise InputError(f"simplex {s} is listed twice in dimension {k}")
            rows.setflags(write=False)

    @functools.cached_property
    def simplices(self) -> list:
        """``simplices[k]``: the k-simplices as ascending vertex-id tuples."""
        return [list(map(tuple, rows.tolist())) for rows in self._rows]

    @functools.cached_property
    def _index(self) -> list:
        """``_index[k]``: k-simplex tuple -> id."""
        return [dict(zip(dim_list, itertools.count())) for dim_list in self.simplices]

    @functools.cached_property
    def facets(self) -> list:
        """``facets[k][i, j]``: id of the facet of k-simplex i that omits
        position j, -1 where that facet is missing (no columns for k = 0)."""
        import numpy as np
        return [np.zeros((self.count(0), 0), np.int64)] + [
            _face_ids(self, k) for k in range(1, self.dimension + 1)]

    @functools.cached_property
    def cofacets(self) -> list:
        """``cofacets[k][f]``: a pair ``(coface, j)`` for every (k+1)-simplex
        whose facet omitting position j is the k-simplex f, in coface order."""
        out = [[[] for _ in self.cells(k)] for k in range(self.dimension + 1)]
        for k in range(1, self.dimension + 1):
            for coface, row in enumerate(self.facets[k].tolist()):
                for j, f in enumerate(row):
                    if f >= 0:
                        out[k - 1][f].append((coface, j))
        return out

    def count(self, k: int) -> int:
        return len(self._rows[k]) if 0 <= k <= self.dimension else 0

    def cells(self, k: int):
        return range(self.count(k))

    def index_of(self, k: int, simplex) -> int:
        try:
            return self._index[k][tuple(simplex)]
        except KeyError:
            raise InputError(f"simplex {simplex} of dimension {k} is not present")

    def simplex(self, k: int, idx: int):
        return self.simplices[k][idx]

    # -- labels ---------------------------------------------------------------

    def __setattr__(self, name, value):
        # a mapping set to labels or orientation is copied into a new store
        if name in ("labels", "orientation"):
            value = _CellValues.of(value, self.count(1 if name == "labels" else self.dimension))
        super().__setattr__(name, value)

    def edge_label(self, u: int, v: int):
        """Deck label of the oriented edge u -> v."""
        if u == v:
            raise InternalError("degenerate edge")
        label = self.labels[self.index_of(1, (u, v) if u < v else (v, u))]
        return label if u < v else self.group.inverse(label)

    def shift(self, simplex, face):
        """Deck shift from a simplex anchor to a face anchor.

        The lift of ``simplex`` with deck coordinate g has its face over
        ``face`` at deck coordinate ``g * shift(simplex, face)``.
        """
        if simplex[0] == face[0]:
            return self.group.identity()
        return self.edge_label(simplex[0], face[0])

    def facet_ids(self, k: int, idx: int) -> list:
        """Facet ids of a k-simplex by omitted position; a missing facet is
        refused by name."""
        row = self.facets[k][idx].tolist()
        if -1 in row:
            s, j = self.simplex(k, idx), row.index(-1)
            raise InputError(f"simplex {s[:j] + s[j + 1:]} of dimension {k - 1} is not present")
        return row

    def face_data(self, k: int, idx: int):
        """Faces of a k-simplex: list of (face_index, sign, deck_shift)."""
        s = self.simplex(k, idx)
        return [(f, (-1) ** j, self.shift(s, s[:j] + s[j + 1:]))
                for j, f in enumerate(self.facet_ids(k, idx))]

    def subface_shift(self, k: int, idx: int, positions):
        """``(face_dim, face_index, deck_shift)`` of the face of a simplex
        spanned by the vertex positions ``positions`` (ascending)."""
        s = self.simplex(k, idx)
        face = tuple(s[p] for p in positions)
        fk = len(face) - 1
        return fk, self.index_of(fk, face), self.shift(s, face)

    # -- cover geometry --------------------------------------------------------

    @functools.cached_property
    def lattice(self) -> tuple:
        """``(den, points, shifts)``: vertex v at ``points[v]`` over ``den``,
        the coordinates' least common denominator, and ``shifts[g]``, g times
        den, for the identity and each edge label; None on a finite deck,
        which moves nothing.  Read once coordinates and labels are set."""
        if self.coordinates is None:
            raise InputError("complex carries no coordinates")
        free = isinstance(self.group, FreeAbelianGroup)
        if not (free or isinstance(self.group, FiniteGroup)):
            raise InputError("complex has no Euclidean model for this deck group")
        den = math.lcm(*(c.denominator for row in self.coordinates.values() for c in row))
        points = tuple(map(tuple, numerators(map(self.coordinates.get, self.cells(0)), den)))
        return den, points, ({g: tuple(den * x for x in g) for g in
                              [self.group.identity(), *self.labels.table]} if free else None)

    def lift(self, k: int, idx: int, g=None) -> list:
        """Vertex rows over ``lattice[0]`` of the cover cell (g, simplex): each
        vertex moved by g times the label from the simplex anchor to it."""
        den, points, shifts = self.lattice
        s = self.simplex(k, idx)
        if shifts is None:
            return [points[v] for v in s]
        rows = [tuple(a + b for a, b in zip(points[v], shifts[self.shift(s, (v,))])) for v in s]
        return rows if g is None else [tuple(a + den * t for a, t in zip(row, g)) for row in rows]

    # -- documents ---------------------------------------------------------------

    def _skey(self, k, idx):
        return "|".join(self.vertices[v] for v in self.simplex(k, idx))

    def to_document(self) -> dict:
        n = self.dimension
        doc = {
            "dimension": n,
            "group": group_to_document(self.group),
            "vertices": list(self.vertices),
            "simplices": {str(k): [[self.vertices[v] for v in s] for s in self.simplices[k]]
                          for k in range(n + 1)},
            "orientation": {self._skey(n, i): sign for i, sign in self.orientation.items()},
            "labels": {self._skey(1, i): self.group.format_element(lbl)
                       for i, lbl in self.labels.items()},
            "tree": sorted(self._skey(1, i) for i in self.tree),
        }
        if self.coordinates is not None:
            doc["coordinates"] = {self.vertices[v]: [fraction_str(c) for c in cs]
                                  for v, cs in sorted(self.coordinates.items())}
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
            dims = [str(k) for k in range(n + 1)]
            for key in by_dim:
                if key not in dims:
                    raise InputError(f"malformed complex document: 'simplices' key {key!r} "
                                     f"is not a dimension from '0' to '{n}'")
            simplices = []
            for key in dims:
                rows = by_dim.get(key, [])
                dim_list = []
                for row in rows:
                    ids = tuple(vid[x] for x in row)
                    if list(ids) != sorted(set(ids)):
                        raise InputError(f"simplex {row} must be ascending and repeat-free")
                    dim_list.append(ids)
                simplices.append(dim_list)
            c = cls(group, names, simplices, {}, {}, name=_entry(doc, "name", str, ""))

            # keys referencing absent simplices are dropped here; the
            # validator reports the underlying missing faces/labels
            edges = c._index[1] if n >= 1 else {}
            tops = c._index[n]
            for key, sign in _entry(doc, "orientation", dict, {}).items():
                try:
                    sign = integer_value(sign)
                except ValueError as e:
                    raise InputError(f"malformed complex document: the 'orientation' sign "
                                     f"of {key!r} must be +1 or -1: {e}") from None
                parts = tuple(vid[x] for x in key.split("|"))
                if parts in tops:
                    c.orientation[tops[parts]] = sign
            for key, word in _entry(doc, "labels", dict, {}).items():
                a, b = _edge_key(vid, "labels", key)
                if not isinstance(word, str):
                    raise InputError(f"malformed complex document: the label of "
                                     f"'labels' edge {key!r} must be a word string")
                lbl = group.parse_word(word)
                if a > b:
                    a, b = b, a
                    lbl = group.inverse(lbl)
                if (a, b) in edges:
                    c.labels[edges[(a, b)]] = lbl
            tree = set()
            for key in _entry(doc, "tree", list, []):
                a, b = sorted(_edge_key(vid, "tree", key))
                if (a, b) in edges:
                    tree.add(edges[(a, b)])
            if "coordinates" in doc:
                try:
                    c.coordinates = coords = {vid[v]: rational_row(row) for v, row in
                                              _entry(doc, "coordinates", dict).items()}
                except (ValueError, TypeError) as e:
                    raise InputError(f"malformed complex document: 'coordinates': {e}") from None
                widths = {len(row) for row in coords.values()}
                if len(coords) != len(names) or len(widths) != 1:
                    raise InputError("malformed complex document: 'coordinates' must "
                                     "give every vertex the same number of coordinates")
                if isinstance(group, FreeAbelianGroup) and widths != {group.rank}:
                    raise InputError(f"malformed complex document: 'coordinates' must give "
                                     f"every vertex {group.rank} entries over Z^{group.rank}")
            c.tree = frozenset(tree)
            return c
        except (KeyError, ValueError, TypeError) as e:
            raise InputError(f"malformed complex document: {e}")


class _CellValues(collections.abc.MutableMapping):
    """Values on the cells of one dimension as a mapping from cell id: one
    int64 id per cell (-1 for none) into ``table``, which holds each value
    once, and ``index`` from value to id, so a value written again reuses
    its id."""

    def __init__(self, ids, table=()):
        self.ids, self.table = ids, list(table)
        self.index = dict(zip(self.table, itertools.count()))

    @classmethod
    def of(cls, values, size: int):
        import numpy as np
        if isinstance(values, cls):
            return cls(values.ids.copy(), values.table)
        # a dict in bulk: each distinct value once, in first-seen order, as
        # writing the keys one by one would store them
        values = values if isinstance(values, dict) else dict(values)
        if values and not (0 <= min(values) and max(values) < size):
            raise KeyError(next(k for k in values if not 0 <= k < size))
        index: dict = {}
        ids = [index.setdefault(v, len(index)) for v in values.values()]
        store = cls(np.full(size, -1, np.int64), index)
        store.ids[np.fromiter(values, np.int64, len(values))] = ids
        return store

    def __getitem__(self, key):
        i = self.ids.item(key) if 0 <= key < len(self.ids) else -1
        if i < 0:
            raise KeyError(key)
        return self.table[i]

    def __setitem__(self, key, value):
        if not 0 <= key < len(self.ids):
            raise KeyError(key)
        self.ids[key] = self.index.setdefault(value, len(self.table))
        if len(self.index) > len(self.table):
            self.table.append(value)

    def __delitem__(self, key):
        self[key]  # a KeyError when the cell has no value
        self.ids[key] = -1

    def __iter__(self):
        return iter((self.ids >= 0).nonzero()[0].tolist())

    def __len__(self):
        return int((self.ids >= 0).sum())


class _BarycenterNames(collections.abc.Sequence):
    """The vertex names of a subdivision of ``q``, built when one is first
    read: an old vertex keeps its name, and the barycenter of an old cell on
    a, b, c is ``"(a+b+c)"``."""

    def __init__(self, q: QuotientComplex):
        self._old, self._rows = q.vertices, q._rows

    def __len__(self):
        return sum(map(len, self._rows))

    def __getitem__(self, i):
        return self._names[i]

    @functools.cached_property
    def _names(self) -> list:
        # new vertex i is the barycenter of old 0-cell i, whose vertex id
        # need not be i
        name = self._old.__getitem__
        return list(map(name, self._rows[0][:, 0].tolist())) + \
            ["(" + "+".join(map(name, s)) + ")" for rows in self._rows[1:] for s in rows.tolist()]


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _entry(doc: dict, key: str, kind: type, default=None):
    """``doc[key]``, or ``default`` when absent and one is given, refused
    with an InputError naming the key unless it is a ``kind``."""
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, kind):
        raise InputError(f"malformed complex document: {key!r} must be "
                         f"{_KINDS[kind]}, not {type(value).__name__}")
    return value


def _edge_key(vid: dict, key: str, edge: str):
    """The vertex ids of a ``'u|v'`` edge key of entry ``key``."""
    parts = edge.split("|") if isinstance(edge, str) else []
    if len(parts) != 2:
        raise InputError(f"malformed complex document: {key!r} edge {edge!r} must "
                         "name two vertices as 'u|v'")
    return vid[parts[0]], vid[parts[1]]


# ---------------------------------------------------------------------------
# Integer rows


def _row_array(simplices, k: int):
    """The k-simplices as an ``(N, k + 1)`` int64 array; a ragged list names
    its first simplex of the wrong length or order."""
    import numpy as np
    if isinstance(simplices, np.ndarray):
        return simplices.astype(np.int64, copy=False).reshape(len(simplices), k + 1)
    simplices = list(simplices)
    if {*map(len, simplices)} <= {k + 1}:
        return np.array(simplices, np.int64).reshape(len(simplices), k + 1)
    raise _malformed_simplex(next(s for s in simplices
                                  if len(s) != k + 1 or list(s) != sorted(set(s))), k)


def _malformed_simplex(s, k: int) -> InputError:
    if len(s) != k + 1:
        return InputError(f"simplex {s} listed in dimension {k}")
    return InputError(f"simplex {s} is not an ascending vertex tuple")


_KEY_LIMIT = 2 ** 62


def _row_keys(rows):
    """One int64 key per row of an integer array, equal exactly when the
    rows are equal, for any ids.

    Columns are folded in one at a time as ``key * width + column``, with
    ``width`` one above the largest id.  Negative or very large ids are
    first replaced by their ranks among all ids (below the entry count),
    and before a fold that could reach ``_KEY_LIMIT`` the keys are re-ranked
    by ``np.unique`` (below the row count), so no key ever overflows.
    """
    import numpy as np
    if not rows.size:
        return np.zeros(len(rows), np.int64)
    if rows.min() < 0 or int(rows.max()) >= _KEY_LIMIT // rows.size:
        rows = np.unique(rows, return_inverse=True)[1].reshape(rows.shape)
    width = int(rows.max()) + 1
    keys, bound = rows[:, 0], width
    for col in rows.T[1:]:
        if bound * width > _KEY_LIMIT:
            keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
            bound = int(keys.max()) + 1
        keys = keys * width + col
        bound *= width
    return keys


def _row_ids(table, rows):
    """Position in ``table`` (distinct rows) of each row of ``rows``; -1
    where a row is not in the table."""
    import numpy as np
    if not len(table):
        return np.full(len(rows), -1, np.int64)
    keys = _row_keys(np.concatenate([table, rows]))
    known, asked = keys[:len(table)], keys[len(table):]
    order = known.argsort(kind="stable")
    at = order[np.minimum(known.searchsorted(asked, sorter=order), len(table) - 1)]
    return np.where(known[at] == asked, at, -1)


def _face_ids(q: QuotientComplex, k: int):
    """``facets[k]`` searched from the rows, in one block per omitted
    position, which keeps each block close to sorted and the search fast."""
    rows = q._rows[k]
    positions = [[p for p in range(k + 1) if p != j] for j in range(k + 1)]
    faces = rows[:, positions].transpose(1, 0, 2).reshape(-1, k)
    return _row_ids(q._rows[k - 1], faces).reshape(k + 1, len(rows)).T


# ---------------------------------------------------------------------------
# Validation


def validate_quotient(q: QuotientComplex) -> ValidationReport:
    """Check the pseudomanifold, orientation, cocycle and complex conditions."""
    import numpy as np
    report = ValidationReport()
    n = q.dimension

    def simplex(k, idx):
        return tuple(q._rows[k][idx].tolist())

    # simplicial-complex condition: all faces present, read off the face
    # table; the checks below read its ids
    facets = q.facets
    for k in range(1, n + 1):
        for idx, j in zip(*(a.tolist() for a in np.nonzero(facets[k] < 0))):
            s = simplex(k, idx)
            report.add("simplicial-complex condition",
                       f"face {s[:j] + s[j + 1:]} of {s} is missing")

    # labels present on every edge, tree normalized (-2 is no label id)
    ids, table, index = q.labels.ids, q.labels.table, q.labels.index
    for idx in (ids < 0).nonzero()[0].tolist():
        report.add("label condition", f"edge {simplex(1, idx)} has no label")
    for idx in q.tree:
        if ids[idx] != index.get(q.group.identity(), -2):
            report.add("tree condition", f"tree edge {simplex(1, idx)} has a non-identity label")
    if q.tree:
        if len(q.tree) != len(q.vertices) - 1:
            report.add("tree condition", "tree edge count is not |V| - 1")
        if len(spanning_tree(q, q.tree)) != len(q.vertices) - 1:
            report.add("tree condition", "tree does not span the vertex set")

    # cocycle condition on 2-simplices (a, b, c), whose facets omitting
    # positions 0, 1, 2 are bc, ac, ab: label(ab) * label(bc) = label(ac).
    # The table holds each label once, so ids compare labels, and each
    # product of the few distinct label pairs is computed once
    if n >= 2 and not report.kinds() & {"label condition", "simplicial-complex condition"}:
        d = len(table)
        bc, ac, ab = (ids[col] for col in facets[2].T)
        pairs, which = np.unique(ab * d + bc, return_inverse=True)
        products = [index.get(q.group.multiply(table[p // d], table[p % d]), -1)
                    for p in pairs.tolist()]
        for idx in (np.array(products, np.int64)[which] != ac).nonzero()[0].tolist():
            report.add("cocycle condition",
                       f"labels around 2-simplex {simplex(2, idx)} do not compose")

    # pseudomanifold + orientation coherence: per facet id, the number of
    # oriented top simplices on it and the sum of their induced signs (no
    # label lookups, so this also runs on otherwise-broken documents)
    if n >= 1:
        # the sign of each table entry, and 0 (at id -1) for none
        signs = np.array([sign if sign in (1, -1) else 0 for sign in q.orientation.table]
                         + [0], np.int64)[q.orientation.ids]
        for idx in (signs == 0).nonzero()[0].tolist():
            report.add("orientation data",
                       f"top simplex {simplex(n, idx)} has no +1/-1 orientation sign")
        on = (signs != 0)[:, None] & (facets[n] >= 0)
        induced = signs[:, None] * (-1) ** np.arange(n + 1)
        count = np.bincount(facets[n][on], minlength=q.count(n - 1))
        total = np.bincount(facets[n][on], weights=induced[on], minlength=q.count(n - 1))
        for f in ((count != 2) | (total != 0)).nonzero()[0].tolist():
            if count[f] != 2:
                report.add("pseudomanifold condition",
                           f"face {simplex(n - 1, f)} lies in {count[f]} top simplices "
                           "(expected 2)")
            else:
                report.add("orientation coherence",
                           f"induced orientations on face {simplex(n - 1, f)} agree "
                           "instead of being opposite")
    return report


def orient_pseudomanifold(q: QuotientComplex) -> dict:
    """Coherent orientation signs by dual propagation.

    Raises OrientationError when no coherent assignment exists.  The result
    is deterministic: top simplex 0 gets +1 and signs propagate across
    shared faces in index order.
    """
    n = q.dimension
    facets = [q.facet_ids(n, idx) for idx in q.cells(n)]
    signs = {}
    for seed in q.cells(n):
        if seed in signs:
            continue
        signs[seed] = 1
        queue = [seed]
        while queue:
            idx = heapq.heappop(queue)
            for j, fidx in enumerate(facets[idx]):
                inc = q.cofacets[n - 1][fidx]
                if len(inc) != 2:
                    raise OrientationError(f"not a pseudomanifold: face {q.simplex(n - 1, fidx)}")
                for other, j2 in inc:
                    if other == idx:
                        continue
                    needed = -signs[idx] * (-1) ** (j + j2)
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
            # a datum wrong only in its signs has no fundamental cycle
            orientation = report.kinds() <= {"orientation coherence", "orientation data"}
            raise (OrientationError if orientation else InputError)(
                "invalid quotient datum: "
                + "; ".join(v["detail"] for v in report.violations[:3]))
        self.quotient = quotient
        self.group = quotient.group

    def neighbor_across(self, g, top_idx: int, face_idx: int):
        """The other top cell sharing a face with (g, top_idx)."""
        q = self.quotient
        n = q.dimension
        tops = [top for top, _ in q.cofacets[n - 1][face_idx]]
        if len(tops) != 2:
            raise InternalError("pseudomanifold violation in neighbor lookup")
        other = tops[0] if tops[1] == top_idx else tops[1]
        if top_idx not in tops:
            raise InputError("face does not bound the given top simplex")
        face = q.simplex(n - 1, face_idx)
        shift_here = q.shift(q.simplex(n, top_idx), face)
        shift_there = q.shift(q.simplex(n, other), face)
        return self.group.multiply(self.group.multiply(g, shift_here),
                                   self.group.inverse(shift_there)), other

    def fundamental_domain(self) -> "FundamentalDomain":
        return FundamentalDomain(self)


class FundamentalDomain:
    """One chosen lift per quotient simplex, tiling the cover.

    The base top simplex (index 0, the lexicographically least) is lifted
    at the identity; the remaining top lifts are chosen by breadth-first
    search through shared faces, parents resolved in index order.  Every
    lower-dimensional simplex is lifted inside the closure of the lift of
    its least containing top simplex.  ``deck[k][idx]`` is the deck element
    of the chosen lift of the k-simplex ``idx``.
    """

    def __init__(self, pc: PeriodicComplex):
        self.pc = pc
        q = pc.quotient
        n = q.dimension
        deck_top = {0: pc.group.identity()}
        frontier = [0]
        while frontier:
            nxt = []
            for idx in sorted(frontier):
                for fidx in q.facet_ids(n, idx):
                    nbr_deck, nbr = pc.neighbor_across(deck_top[idx], idx, fidx)
                    if nbr not in deck_top:
                        deck_top[nbr] = nbr_deck
                        nxt.append(nbr)
            frontier = nxt
        if len(deck_top) != q.count(n):
            raise InputError("quotient top cells are not face-connected")
        # the least top containing each cell (q.count(n) for none), read down the cofacets
        host = [None] * n + [list(q.cells(n))]
        for k in reversed(range(n)):
            host[k] = [min((host[k + 1][c] for c, _ in cof), default=q.count(n))
                       for cof in q.cofacets[k]]
        self.deck = [{} for _ in range(n)] + [deck_top]
        for k in range(n):
            for idx, top in enumerate(host[k]):
                if top == q.count(n):
                    raise InputError(f"simplex of dimension {k} lies in no top simplex")
                shift = q.shift(q.simplex(n, top), q.simplex(k, idx))
                self.deck[k][idx] = q.group.multiply(deck_top[top], shift)

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
    ``chain_map[k]`` sends an original k-simplex index to its chain in the
    new complex as a list of ``(new_index, coefficient)`` pairs.  For one
    subdivision the chain of s has one term per full flag v_0 < e_1 < ... <
    s (one cell of each dimension), whose coefficient is the sign of the
    order in which the flag adds the vertices of s.  ``levels`` holds what
    each subdivision, first to last, already has of it: per dimension the
    last cell and the sign of every flag (see :func:`_subdivide_once`).
    The full flags are picked out per level and the levels composed when
    ``chain_map`` is first read, so a caller that reads only ``complex``
    (``validate``, the analytic refinement) never builds a chain map.
    """

    complex: QuotientComplex
    cell_vertex: list
    levels: list

    @functools.cached_property
    def chain_map(self) -> list:
        return functools.reduce(_compose_chain_maps, map(_chain_map_tables, self.levels))


SUBDIVISION_BUDGET = 3


def check_subdivision_count(times: int, knob: str, least: int = 0) -> int:
    """``times`` when it lies in ``least``..SUBDIVISION_BUDGET; otherwise an
    error that names ``knob``, the option or document field that set it."""
    if times < least:
        raise InputError(f"{knob} must be >= {least}, not {times}")
    if times > SUBDIVISION_BUDGET:
        raise ResourceError(f"{knob} {times} exceeds the subdivision budget "
                            f"{SUBDIVISION_BUDGET}; deep subdivisions explode the cell count")
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
        q, cell_vertex, level = _subdivide_once(q)
        levels.append(level)
    return Subdivision(q, cell_vertex, levels)


def _chain_map_tables(level):
    """One level's chain map as ``{old index: [(new index, coefficient)]}``
    per dimension: old k-cell idx, new vertex ``start + idx``, goes to its
    full flags (the nonzero signs) in row order."""
    tables = []
    for last, signs, start, stop in level:
        full = signs.nonzero()[0]
        table = {idx: [] for idx in range(stop - start)}
        for row, cell, sign in zip(full.tolist(), (last[full] - start).tolist(),
                                   signs[full].tolist()):
            table[cell].append((row, sign))
        tables.append(table)
    return tables


def _compose_chain_maps(first, second):
    out = []
    for one, two in zip(first, second):
        table = {}
        for idx, terms in one.items():
            acc = collections.Counter()
            for mid, c1 in terms:
                for new, c2 in two[mid]:
                    acc[new] += c1 * c2
            table[idx] = [(i, c) for i, c in sorted(acc.items()) if c]
        out.append(table)
    return out


def _subdivide_once(q: QuotientComplex):
    """One barycentric subdivision, read off the flag table of ``q``:
    ``(complex, cell_vertex, level)``, where ``level[k]`` is ``(last,
    signs, offset[k], offset[k + 1])``: the last cell of each new k-simplex
    and its flag sign, 0 unless the flag is full, from which
    :func:`_chain_map_tables` reads the chain map when it is asked for.

    The barycenter of old k-cell ``idx`` is new vertex ``offset[k] + idx``,
    so a face always has a smaller id than its cofaces and a flag is an
    ascending row of ids.  Extending every flag by the proper cofaces of
    its last cell, in ascending id, lists each dimension's simplices in
    lexicographic order.  A flag that gains one vertex per step from a
    vertex up to a k-cell is a full flag of that cell; its sign is the sign
    of the order in which it adds the cell's vertices, the product of its
    step signs.  The new complex's face table is read off the flags too.
    """
    import numpy as np
    n = q.dimension
    group = q.group
    offset = list(itertools.accumulate(map(q.count, range(n + 1)), initial=0))
    if any((f < 0).any() for f in q.facets + [q.labels.ids, q.orientation.ids]):
        raise InputError("subdivision needs a complex with every face present, every "
                         "edge labelled and every top simplex signed")

    # the coface table: one entry (face, coface, step sign, label id) per
    # proper face of each old cell, for the new edge face -> coface.  When
    # the face is the facet of a k-cell that omits the vertex at position j,
    # that vertex comes after k - j of the facet's vertices, so the step sign
    # is (-1)^(k - j); combinations() omit positions k, k-1, ..., 0 in turn,
    # so it is (-1)^t for the t-th facet.  The step sign is 0 for a face of
    # lower dimension.  The edge from the barycenter of tau to that of rho
    # carries shift(rho, tau)^-1, the inverse label of the edge from the
    # first vertex of rho to the first vertex of tau (the identity when they
    # are the same vertex); ``back[:, p]`` holds its label id when tau
    # starts at position p of rho: 0 for the identity, 1 + i for the inverse
    # of old label i, and ``remap`` takes it to the distinct new labels.
    distinct = {}
    remap = np.array([distinct.setdefault(g, len(distinct)) for g in
                      [group.identity()] + list(map(group.inverse, q.labels.table))], np.int64)
    entries, spokes = [], [np.zeros((q.count(0), 0), np.int64)]
    for k in range(1, n + 1):
        rows = q._rows[k]
        combos = [list(itertools.combinations(range(k + 1), m + 1)) for m in range(k)]
        faces = [np.stack([_compose_facets(q, k, c) for c in block], axis=1) for block in combos]
        # the edges (0, p) are the first k pairs of positions
        spokes.append(faces[1][:, :k] if k > 1 else np.arange(len(rows))[:, None])
        back = np.concatenate([np.zeros((len(rows), 1), np.int64),
                               1 + q.labels.ids[spokes[k]]], 1)
        for m in range(k):
            steps = [(-1) ** t if m == k - 1 else 0 for t in range(len(combos[m]))]
            entries.append((offset[m] + faces[m],
                            (offset[k] + np.arange(len(rows))).repeat(len(steps)),
                            np.tile(steps, len(rows)),
                            back[:, [c[0] for c in combos[m]]]))
    face, coface, step, label = (np.concatenate([e[i].ravel() for e in entries]) for i in range(4))
    keys = face * offset[-1] + coface  # (face, coface) pairs are unique: one sort key
    order = keys.argsort()
    keys, coface, step, label = keys[order], coface[order], step[order], label[order]
    start = np.concatenate([[0], np.bincount(face, minlength=offset[-1]).cumsum()])

    # each flag level extends every flag by the coface entries of its last
    # cell; level 0 is every cell, and only the vertices start full flags.
    # The child of flag p by entry e is row e + skip[p] of the next level.
    # Facet j of (c_0, ..., c_k), child of p by e, is p for j = k, and else
    # the child of p's facet j by e, or for j = k - 1 by the entry
    # c_{k-2} -> c_k (a search of the keys); at k = 1 facet 0 is vertex c_1.
    rows = np.arange(offset[-1])[:, None]
    signs = (rows[:, 0] < offset[1]).astype(np.int64)
    simplices_by_dim, level = [], []
    facets = [np.zeros((offset[-1], 0), np.int64)]
    skips = []
    for k in range(n + 1):
        if k:
            first = start[rows[:, -1]]
            width = start[rows[:, -1] + 1] - first
            parent = np.repeat(np.arange(len(rows)), width)
            skips.append(width.cumsum() - width - first)
            entry = np.arange(len(parent)) - skips[-1][parent]
            rows = np.concatenate([rows[parent], coface[entry][:, None]], axis=1)
            signs = signs[parent] * step[entry]
            if k == 1:
                facets.append(np.stack([coface[entry], parent], axis=1))
            else:
                side = keys.searchsorted(rows[:, k - 2] * offset[-1] + rows[:, k])
                by = np.concatenate([entry[:, None].repeat(k - 1, axis=1), side[:, None]], axis=1)
                up = skips[-2][facets[-1][parent]]
                facets.append(np.concatenate([by + up, parent[:, None]], axis=1))
        simplices_by_dim.append(rows)
        level.append((rows[:, -1], signs, offset[k], offset[k + 1]))

    coords = _barycenters(q, spokes) if q.coordinates is not None else None
    # a new top simplex takes its cell's sign times its flag's (every top
    # flag is full, so each is +1 or -1, table [-1, 1] when both occur), and
    # new edge e is coface entry e: level 1 extends each cell in id order
    old_signs = np.array(q.orientation.table, np.int64)[q.orientation.ids]
    positive = (old_signs[rows[:, -1] - offset[n]] * signs > 0).astype(np.int64)
    low, high = int(positive.min()), int(positive.max())
    new = QuotientComplex(group, _BarycenterNames(q), simplices_by_dim,
                          _CellValues(positive - low, [-1, 1][low:high + 1]),
                          _CellValues(remap[label], distinct),
                          coordinates=coords, name=(q.name + "^sd") if q.name else "")
    new.facets = facets  # read off the flags above, never searched
    cell_vertex = [list(range(offset[k], offset[k + 1])) for k in range(n + 1)]
    return new, cell_vertex, level


def _barycenters(q: QuotientComplex, spokes) -> dict:
    """The barycenter of every cell by new vertex id, summed in the lattice
    of ``q`` from its first vertex (``spokes[k]``: the edges from it in each
    k-cell), with one Fraction per coordinate."""
    import numpy as np
    den, points, shifts = q.lattice
    points = np.array(points, object)
    zero = [0] * points.shape[1]  # a finite deck moves nothing
    moves = np.array([shifts[g] if shifts else zero for g in q.labels.table], object)
    out = []
    for k, (rows, edges) in enumerate(zip(q._rows, spokes)):
        sums = points[rows].sum(axis=1) + moves[q.labels.ids[edges]].sum(axis=1)
        out += [tuple(Fraction(x, den * (k + 1)) for x in row) for row in sums.tolist()]
    return dict(enumerate(out))


def _compose_facets(q: QuotientComplex, k: int, positions):
    """Ids of the face on ``positions`` of every k-simplex: its facets taken
    in turn, largest omitted position first, which leaves the smaller ones
    in place; every facet must be present."""
    import numpy as np
    ids = np.arange(q.count(k))
    for dim, j in zip(range(k, 0, -1), sorted(set(range(k + 1)) - set(positions),
                                               reverse=True)):
        ids = q.facets[dim][ids, j]
    return ids


def spanning_tree(q: QuotientComplex, edges) -> dict:
    """Breadth-first tree over the given edge ids from vertex 0, frontier
    and neighbours taken in ascending order: ``{vertex: (parent, edge)}``
    for every other vertex reached, in the order reached."""
    adj = {}
    edges = list(edges)
    for e, (u, v) in zip(edges, q._rows[1][edges].tolist()):
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    tree = {}
    frontier = [0]
    while frontier:
        nxt = []
        for u in sorted(frontier):
            for v, e in sorted(adj.get(u, [])):
                if v and v not in tree:
                    tree[v] = (u, e)
                    nxt.append(v)
        frontier = nxt
    return tree


def gauge_normalize(q: QuotientComplex) -> QuotientComplex:
    """Re-gauge labels so a BFS spanning tree carries identity labels.

    This re-parametrizes the cover (an isomorphic covering) and must not be
    applied to complexes whose coordinates encode labels as translations.
    """
    if q.coordinates is not None:
        raise InputError("gauge normalization would break the Euclidean model")
    group = q.group
    tree = spanning_tree(q, q.cells(1))
    if len(tree) != len(q.vertices) - 1:
        raise InputError("quotient 1-skeleton is not connected")
    # products append one token at a time; back(g) is the word of g^-1
    word = group.element_word
    back = lambda g: [-t for t in reversed(word(g))]
    h = {0: group.identity()}
    for v, (u, e) in tree.items():
        h[v] = functools.reduce(group.multiply_token, (back if u > v else word)(q.labels[e]), h[u])
    labels = {e: functools.reduce(group.multiply_token, [*word(q.labels[e]), *back(h[v])], h[u])
              for e, (u, v) in enumerate(q.simplices[1])}
    return QuotientComplex(group, q.vertices, q._rows, q.orientation, labels,
                           {e for _, e in tree.values()}, name=q.name)
