"""Shipped quotient complexes, maps and fields used by tests and the CLI.

The torus fixture is the 3x3 grid triangulation of the unit torus over
Z^2, with the grid shifted by (1/5, 1/9) so that the zero sets of the
shipped trigonometric models avoid all edges and medians.  The genus-2
fixture is built from the identified octagon: the octagon disk is fanned
from its center and subdivided once by :func:`barycentric_subdivide`
(which makes the identified quotient honestly simplicial), and boundary
positions carry development words in the surface group, from which all
edge labels follow.  Interior cells keep their own classes, named after
the disk-cell numbering.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InputError, InternalError
from .groups import FreeAbelianGroup, SurfaceGroup, trivial_group

if TYPE_CHECKING:
    from .complexes import QuotientComplex


# The deck group of each shipped complex, which its builder uses, so that a
# command reading only the group needs no complex (and no numpy).  The
# builders import the complex code themselves, so a shipped document or
# group is read without loading it.
FIXTURE_GROUPS = {
    "tetrahedron": trivial_group,
    "octahedron": trivial_group,
    "torus": functools.partial(FreeAbelianGroup, 2),
    "csaszar": trivial_group,
    "klein": trivial_group,
    "genus2": functools.partial(SurfaceGroup, 2),
}


def _complex_from_triangles(group, vertex_names, triangles, labels_by_pair=None,
                            coordinates=None, name=""):
    """Assemble a 2-dimensional quotient complex from oriented triangles.

    ``triangles`` is a list of vertex-id triples in their geometric
    orientation (all coherently counter-clockwise); they are re-sorted to
    ascending storage order and the orientation sign records the parity.
    ``labels_by_pair`` maps ordered vertex pairs to deck elements; the pair
    may be given in either direction.  Without it every edge carries the
    identity.
    """
    from .complexes import QuotientComplex, permutation_sign, spanning_tree
    vid_count = len(vertex_names)
    edges = set()
    tris = []
    signs = []
    for t in triangles:
        if len(set(t)) != 3:
            raise InputError(f"triangle {t} repeats a vertex")
        asc = tuple(sorted(t))
        tris.append(asc)
        signs.append(permutation_sign(t))
        edges |= {(asc[0], asc[1]), (asc[0], asc[2]), (asc[1], asc[2])}
    tris_sorted = sorted(range(len(tris)), key=lambda i: tris[i])
    simplices = [
        [(v,) for v in range(vid_count)],
        sorted(edges),
        [tris[i] for i in tris_sorted],
    ]
    orientation = {pos: signs[i] for pos, i in enumerate(tris_sorted)}
    labels = {}
    for eidx, (u, v) in enumerate(simplices[1]):
        if labels_by_pair is None:
            labels[eidx] = group.identity()
        elif (u, v) in labels_by_pair:
            labels[eidx] = labels_by_pair[(u, v)]
        elif (v, u) in labels_by_pair:
            labels[eidx] = group.inverse(labels_by_pair[(v, u)])
        else:
            raise InputError(f"no label for edge {(u, v)}")
    q = QuotientComplex(group, vertex_names, simplices, orientation, labels,
                        coordinates=coordinates, name=name)
    # the spanning tree: a BFS tree over the identity-labeled edges
    ident = group.identity()
    tree = spanning_tree(q, [e for e in q.cells(1) if q.labels[e] == ident])
    if len(tree) != len(q.vertices) - 1:
        raise InternalError("identity-labeled edges do not span the vertex set")
    q.tree = frozenset(e for _, e in tree.values())
    return q


def _oriented(q: QuotientComplex) -> QuotientComplex:
    """``q`` with the coherent orientation signs of its rows."""
    from .complexes import orient_pseudomanifold
    q.orientation = orient_pseudomanifold(q)
    return q


# ---------------------------------------------------------------------------
# Spheres


def tetrahedron_sphere() -> QuotientComplex:
    """Boundary of the regular tetrahedron, realized in R^3, trivial deck."""
    group = FIXTURE_GROUPS["tetrahedron"]()
    names = ["p0", "p1", "p2", "p3"]
    coords = {
        0: (Fraction(1), Fraction(1), Fraction(1)),
        1: (Fraction(1), Fraction(-1), Fraction(-1)),
        2: (Fraction(-1), Fraction(1), Fraction(-1)),
        3: (Fraction(-1), Fraction(-1), Fraction(1)),
    }
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return _oriented(_complex_from_triangles(group, names, triangles, coordinates=coords,
                                             name="tetrahedron"))


def octahedron_sphere() -> QuotientComplex:
    """Boundary of the octahedron with vertices +-e_i, trivial deck."""
    group = FIXTURE_GROUPS["octahedron"]()
    names = ["px", "py", "pz", "mx", "my", "mz"]
    e = Fraction(1)
    z = Fraction(0)
    coords = {0: (e, z, z), 1: (z, e, z), 2: (z, z, e),
              3: (-e, z, z), 4: (z, -e, z), 5: (z, z, -e)}
    triangles = []
    for x in (0, 3):
        for y in (1, 4):
            for zc in (2, 5):
                triangles.append((x, y, zc))
    return _oriented(_complex_from_triangles(group, names, triangles, coordinates=coords,
                                             name="octahedron"))


# ---------------------------------------------------------------------------
# Tori


TORUS_OFFSET = (Fraction(1, 5), Fraction(1, 9))


def torus_grid(m: int = 3, offset=TORUS_OFFSET) -> QuotientComplex:
    """m x m grid triangulation of the unit torus over Z^2.

    Vertex (i, j) sits at (i/m + ox, j/m + oy); each grid square is split
    along its main diagonal into two counter-clockwise triangles.  Edge
    labels are the integer wrap vectors, so the non-wrapping edges carry
    the identity and contain a spanning tree.
    """
    if m < 3:
        raise InputError("grid tori need m >= 3 to be simplicial")
    group = FIXTURE_GROUPS["torus"]()
    ox, oy = Fraction(offset[0]), Fraction(offset[1])
    names = [f"v{i}{j}" for i in range(m) for j in range(m)]
    coords = {i * m + j: (Fraction(i, m) + ox, Fraction(j, m) + oy)
              for i in range(m) for j in range(m)}

    def vid(i, j):
        return (i % m) * m + (j % m)

    labels = {}
    triangles = []

    def add_edge(i, j, di, dj):
        u = vid(i, j)
        v = vid(i + di, j + dj)
        lbl = (1 if i + di == m else 0, 1 if j + dj == m else 0)
        key = (u, v)
        if key in labels and labels[key] != lbl:
            raise InternalError("conflicting wrap labels on a grid edge")
        labels[key] = lbl

    for i in range(m):
        for j in range(m):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
            add_edge(i, j, 1, 0)
            add_edge(i, j, 0, 1)
            add_edge(i, j, 1, 1)
    return _complex_from_triangles(group, names, triangles, labels, coords,
                                   name=f"torus{m}x{m}")


def csaszar_torus() -> QuotientComplex:
    """The 7-vertex torus triangulation (cyclic construction), trivial deck."""
    group = FIXTURE_GROUPS["csaszar"]()
    names = [f"w{i}" for i in range(7)]
    triangles = []
    for i in range(7):
        triangles.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        triangles.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return _oriented(_complex_from_triangles(group, names, triangles, name="csaszar"))


def klein_grid(m: int = 3) -> QuotientComplex:
    """A non-orientable grid triangulation (Klein bottle), trivial deck.

    Horizontal wrap is straight, vertical wrap reverses the row, so no
    coherent orientation exists.  Orientation signs are all +1, which the
    validator reports as incoherent.
    """
    group = FIXTURE_GROUPS["klein"]()
    names = [f"k{i}{j}" for i in range(m) for j in range(m)]

    def vid(i, j):
        if j >= m:
            i, j = (m - i) % m, j % m
        return (i % m) * m + j

    triangles = []
    for i in range(m):
        for j in range(m):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    q = _complex_from_triangles(group, names, triangles, name="klein")
    q.orientation = {idx: 1 for idx in q.cells(2)}
    return q


# ---------------------------------------------------------------------------
# Genus-2 surface over its one-relator group


def genus2_surface() -> QuotientComplex:
    """Triangulated genus-2 surface labeled over its surface group.

    Construction: the identification octagon a b a^-1 b^-1 c d c^-1 d^-1 is
    coned from its center to the 16 boundary positions (corners and side
    midpoints), the disk is subdivided once by :func:`barycentric_subdivide`,
    and boundary positions are identified by the side pairings.  Interior
    cells keep their own classes ``cell{i}``, numbered as disk vertices in
    disk order, then edges sorted by vertex names, then triangles in fan
    order.  Every boundary position carries a development word (the deck
    element moving the canonical lift of its class to that position); an
    edge label is then tail^-1 * head.  The identified complex is
    simplicial with (V, E, F) = (46, 144, 96).
    """
    from .complexes import barycentric_subdivide, gauge_normalize
    group = FIXTURE_GROUPS["genus2"]()
    A, B, C, D = (group.element_of([i]) for i in (1, 2, 3, 4))
    side_letters = [A, B, group.inverse(A), group.inverse(B),
                    C, D, group.inverse(C), group.inverse(D)]
    # development words of the octagon corners: prefix products of the
    # boundary word; omega[8] closes up to the relator = identity
    omega = [group.identity()]
    for x in side_letters:
        omega.append(group.multiply(omega[-1], x))
    if omega[8] != group.identity():
        raise InternalError("octagon boundary word does not close")

    # the fan disk: center c is vertex 0; corner P_k and side midpoint M_k
    # are vertices 2k + 1 and 2k + 2 around the boundary
    disk_vertices = ["c"] + [f"{p}{k}" for k in range(8) for p in "PM"]
    fan = [(0, i, i % 16 + 1) for i in range(1, 17)]
    disk = _complex_from_triangles(trivial_group(), disk_vertices, fan)
    sd = barycentric_subdivide(disk)

    def barycenter(*cell):
        k = len(cell) - 1
        return sd.cell_vertex[k][disk.index_of(k, tuple(sorted(cell)))]

    edges = sorted(disk.simplices[1], key=lambda e: sorted(disk_vertices[v] for v in e))
    ident_class = {barycenter(*cell): f"cell{i}"
                   for i, cell in enumerate(disk.simplices[0] + edges + fan)}
    dev_word = dict.fromkeys(ident_class, group.identity())
    for k in range(8):
        P, M, P_next = 2 * k + 1, 2 * k + 2, (2 * k + 2) % 16 + 1
        # side k reads letter "ababcdcd"[k], forwards for k % 4 < 2; a
        # reverse side's first half is the letter's second half
        letter, forward = "ababcdcd"[k], k % 4 < 2
        halves = "12" if forward else "21"
        word = omega[k] if forward else omega[k + 1]
        for cell, cls, w in [((P,), "v0", omega[k]), ((M,), f"m_{letter}", word),
                             ((P, M), f"h_{letter}{halves[0]}", word),
                             ((M, P_next), f"h_{letter}{halves[1]}", word)]:
            ident_class[barycenter(*cell)] = cls
            dev_word[barycenter(*cell)] = w

    class_names = sorted(set(ident_class.values()))
    class_vid = [class_names.index(ident_class[c]) for c in range(len(ident_class))]
    # the development words are few, so each label is computed once
    label = functools.cache(lambda x, y: group.multiply(group.inverse(x), y))
    labels_by_pair = {}
    for row in sd.complex.simplices[2]:
        for u, v in itertools.permutations(row, 2):
            lbl = label(dev_word[u], dev_word[v])
            if labels_by_pair.setdefault((class_vid[u], class_vid[v]), lbl) != lbl:
                raise InternalError("inconsistent development words on an identified edge")
    triangles = [[class_vid[c] for c in row] for row in sd.complex.simplices[2]]
    # orientation reads only the rows, which gauging keeps: one face table
    return _oriented(gauge_normalize(_complex_from_triangles(
        group, class_names, triangles, labels_by_pair, name="genus2")))


FIXTURE_BUILDERS = {
    "tetrahedron": tetrahedron_sphere,
    "octahedron": octahedron_sphere,
    "torus": torus_grid,
    "csaszar": csaszar_torus,
    "klein": klein_grid,
    "genus2": genus2_surface,
}


def fixture_complex(name: str) -> QuotientComplex:
    if isinstance(name, str) and name in FIXTURE_BUILDERS:
        return FIXTURE_BUILDERS[name]()
    raise InputError(f"unknown fixture {name!r}; available: "
                     + ", ".join(sorted(FIXTURE_BUILDERS)))


# ---------------------------------------------------------------------------
# Shipped map, field and index-data documents


SIN_BOUND = "2/5"


def sin_map_document() -> dict:
    """Displacement (sin(2 pi x)/5, sin(2 pi y)/5) on the torus cover."""
    return {
        "variant": "analytic",
        "fixture": "torus",
        "components": ["sin(2*pi*x)/5", "sin(2*pi*y)/5"],
        "bound": SIN_BOUND,
    }


def scaled_sin_map_document(factor="3/10") -> dict:
    return {
        "variant": "analytic",
        "fixture": "torus",
        "components": [f"({factor})*sin(2*pi*x)", f"({factor})*sin(2*pi*y)"],
        "bound": "1/2",
    }


def translation_map_document() -> dict:
    return {
        "variant": "analytic",
        "fixture": "torus",
        "components": ["3/10", "0"],
        "bound": "3/10",
    }


def sin_field_document() -> dict:
    """Vector field (sin(2 pi x), sin(2 pi y)) on the torus cover."""
    return {
        "variant": "analytic",
        "fixture": "torus",
        "components": ["sin(2*pi*x)", "sin(2*pi*y)"],
        "bound": "2",
    }


def overridden_sin_field_document(translate="a a") -> dict:
    """Sin field with one window replaced by a seam-matching perturbation.

    Inside the window the factors (1 - 2 sin(2 pi y)) and
    (1 - 2 sin(2 pi x)) create four extra transverse zeros at the points
    with sin = 1/2, forming two canceling index pairs; the field agrees
    with the unperturbed one on the window boundary.
    """
    return {
        "variant": "analytic",
        "fixture": "torus",
        "components": ["sin(2*pi*x)", "sin(2*pi*y)"],
        "bound": "6",
        "overrides": [{
            "translate": translate,
            "components": ["sin(2*pi*x)*(1 - 2*sin(2*pi*y))",
                           "sin(2*pi*y)*(1 - 2*sin(2*pi*x))"],
        }],
    }


def octahedron_rotation_document() -> dict:
    """Order-3 rotation about the axis through two opposite face centers."""
    return {
        "variant": "simplicial",
        "fixture": "octahedron",
        "subdivision": 0,
        "vertex_images": {"px": "py", "py": "pz", "pz": "px",
                          "mx": "my", "my": "mz", "mz": "mx"},
    }


def octahedron_antipodal_document() -> dict:
    return {
        "variant": "simplicial",
        "fixture": "octahedron",
        "subdivision": 0,
        "vertex_images": {"px": "mx", "py": "my", "pz": "mz",
                          "mx": "px", "my": "py", "mz": "pz"},
    }


def octahedron_reflection_document() -> dict:
    """Orientation-reversing involution (x <-> y), classical trace 0."""
    return {
        "variant": "simplicial",
        "fixture": "octahedron",
        "subdivision": 0,
        "vertex_images": {"px": "py", "py": "px", "pz": "pz",
                          "mx": "my", "my": "mx", "mz": "mz"},
    }


def octahedron_identity_document() -> dict:
    return {
        "variant": "simplicial",
        "fixture": "octahedron",
        "subdivision": 0,
        "vertex_images": {n: n for n in ["px", "py", "pz", "mx", "my", "mz"]},
    }


def octahedron_polar_field_document() -> dict:
    """Gradient-like PL field with poles at two opposite face centers.

    Vertex vectors are the tangential parts of the diagonal direction
    (1,1,1); projected into each face plane and interpolated, the field
    vanishes exactly at the barycenters of the faces (+1,+1,+1) and
    (-1,-1,-1), each with index +1, so the total matches chi = 2.
    """
    return {
        "variant": "pl",
        "fixture": "octahedron",
        "vertex_vectors": {
            "px": ["0", "1", "1"], "mx": ["0", "1", "1"],
            "py": ["1", "0", "1"], "my": ["1", "0", "1"],
            "pz": ["1", "1", "0"], "mz": ["1", "1", "0"],
        },
        "bound": "2",
    }


def connected_sum_index_document() -> dict:
    """Per-coset index data: two index-1 fixed points per domain over Z."""
    return {
        "group": {"kind": "free-abelian", "rank": 1, "generators": ["a"]},
        "constant": 2,
        "finite": [],
    }


def free_cover_index_document(constant: int = 5) -> dict:
    return {
        "group": {"kind": "free", "rank": 2, "generators": ["a", "b"]},
        "constant": constant,
        "finite": [],
    }


FIXTURE_DOCUMENTS = {
    "sin-map": sin_map_document,
    "sin-map-scaled": scaled_sin_map_document,
    "translation-map": translation_map_document,
    "sin-field": sin_field_document,
    "sin-field-override": overridden_sin_field_document,
    "octahedron-rotation": octahedron_rotation_document,
    "octahedron-antipodal": octahedron_antipodal_document,
    "octahedron-reflection": octahedron_reflection_document,
    "octahedron-identity": octahedron_identity_document,
    "octahedron-polar-field": octahedron_polar_field_document,
    "connected-sum-index": connected_sum_index_document,
    "free-cover-index": free_cover_index_document,
}


def fixture_document(name: str) -> dict:
    try:
        return FIXTURE_DOCUMENTS[name]()
    except KeyError:
        raise InputError(f"unknown document fixture {name!r}; available: "
                         + ", ".join(sorted(FIXTURE_DOCUMENTS)))
