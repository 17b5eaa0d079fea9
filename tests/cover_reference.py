"""A Fraction reference for the realization of a cover, read off a
complex's ``coordinates`` and ``edge_label`` alone, so that tests of the
integer lattice and of the readers built on it do not check the program
against itself."""

from fractions import Fraction

from deckindex.groups import FreeAbelianGroup


def fraction_cell(q, k, idx, g=None):
    """Exact vertex positions of the cover cell (g, k-simplex ``idx``) of
    ``q``: over Z^n, vertex v sits at its coordinates plus g plus the label
    of the edge from the simplex's first vertex to v; a finite deck leaves
    every vertex at its coordinates."""
    s = q.simplex(k, idx)
    zero = (0,) * len(q.coordinates[s[0]])
    free = isinstance(q.group, FreeAbelianGroup)
    out = []
    for v in s:
        label = q.edge_label(s[0], v) if free and v != s[0] else zero
        move = g if free and g is not None else zero
        out.append(tuple(Fraction(c) + a + b
                         for c, a, b in zip(q.coordinates[v], label, move, strict=True)))
    return out
