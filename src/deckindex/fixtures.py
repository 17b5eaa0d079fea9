"""Shipped quotient complexes, maps and fields used by tests and the CLI.

The torus fixture is the 3x3 grid triangulation of the unit torus over
Z^2, with the grid shifted by (1/5, 1/9) so that the zero sets of the
shipped trigonometric models avoid all edges and medians.  The genus-2
fixture is built from the identified octagon: the octagon disk is fanned
from its center, barycentrically subdivided once (which makes the
identified quotient honestly simplicial), and boundary positions carry
development words in the surface group, from which all edge labels follow.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import QuotientComplex, gauge_normalize, orient_pseudomanifold
from .errors import InputError, InternalError
from .groups import FreeAbelianGroup, SurfaceGroup, trivial_group


def _complex_from_triangles(group, vertex_names, triangles, labels_by_pair,
                            coordinates=None, name=""):
    """Assemble a 2-dimensional quotient complex from oriented triangles.

    ``triangles`` is a list of vertex-id triples in their geometric
    orientation (all coherently counter-clockwise); they are re-sorted to
    ascending storage order and the orientation sign records the parity.
    ``labels_by_pair`` maps ordered vertex pairs to deck elements; the pair
    may be given in either direction.
    """
    vid_count = len(vertex_names)
    edges = set()
    tris = []
    signs = []
    for t in triangles:
        if len(set(t)) != 3:
            raise InputError(f"triangle {t} repeats a vertex")
        asc = tuple(sorted(t))
        parity = _permutation_sign(t, asc)
        tris.append(asc)
        signs.append(parity)
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
        if (u, v) in labels_by_pair:
            labels[eidx] = labels_by_pair[(u, v)]
        elif (v, u) in labels_by_pair:
            labels[eidx] = group.inverse(labels_by_pair[(v, u)])
        else:
            raise InputError(f"no label for edge {(u, v)}")
    q = QuotientComplex(group, vertex_names, simplices, orientation, labels,
                        coordinates=coordinates, name=name)
    q.tree = frozenset(_identity_spanning_tree(q))
    return q


def _permutation_sign(seq, sorted_seq):
    perm = [sorted_seq.index(x) for x in seq]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _identity_spanning_tree(q: QuotientComplex):
    """BFS spanning tree using identity-labeled edges only."""
    ident = q.group.identity()
    adj = {}
    for eidx, (u, v) in enumerate(q.simplices[1]):
        if q.labels[eidx] == ident:
            adj.setdefault(u, []).append((v, eidx))
            adj.setdefault(v, []).append((u, eidx))
    seen = {0}
    tree = set()
    frontier = [0]
    while frontier:
        nxt = []
        for u in sorted(frontier):
            for v, eidx in sorted(adj.get(u, [])):
                if v not in seen:
                    seen.add(v)
                    tree.add(eidx)
                    nxt.append(v)
        frontier = nxt
    if len(seen) != len(q.vertices):
        raise InternalError("identity-labeled edges do not span the vertex set")
    return tree


# ---------------------------------------------------------------------------
# Spheres


def tetrahedron_sphere() -> QuotientComplex:
    """Boundary of the regular tetrahedron, realized in R^3, trivial deck."""
    group = trivial_group()
    names = ["p0", "p1", "p2", "p3"]
    coords = {
        0: (Fraction(1), Fraction(1), Fraction(1)),
        1: (Fraction(1), Fraction(-1), Fraction(-1)),
        2: (Fraction(-1), Fraction(1), Fraction(-1)),
        3: (Fraction(-1), Fraction(-1), Fraction(1)),
    }
    ident = group.identity()
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    labels = {}
    for t in triangles:
        for i in range(3):
            for j in range(i + 1, 3):
                labels[(t[i], t[j])] = ident
    q = _complex_from_triangles(group, names, triangles, labels, coords,
                                name="tetrahedron")
    q.orientation = orient_pseudomanifold(q)
    return q


def octahedron_sphere() -> QuotientComplex:
    """Boundary of the octahedron with vertices +-e_i, trivial deck."""
    group = trivial_group()
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
    ident = group.identity()
    labels = {}
    for t in triangles:
        for i in range(3):
            for j in range(i + 1, 3):
                labels[(t[i], t[j])] = ident
    q = _complex_from_triangles(group, names, triangles, labels, coords,
                                name="octahedron")
    q.orientation = orient_pseudomanifold(q)
    return q


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
    group = FreeAbelianGroup(2)
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
    group = trivial_group()
    names = [f"w{i}" for i in range(7)]
    triangles = []
    for i in range(7):
        triangles.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        triangles.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    ident = group.identity()
    labels = {}
    for t in triangles:
        for i in range(3):
            for j in range(i + 1, 3):
                labels[(t[i], t[j])] = ident
    q = _complex_from_triangles(group, names, triangles, labels, name="csaszar")
    q.orientation = orient_pseudomanifold(q)
    return q


def klein_grid(m: int = 3) -> QuotientComplex:
    """A non-orientable grid triangulation (Klein bottle), trivial deck.

    Horizontal wrap is straight, vertical wrap reverses the row, so no
    coherent orientation exists.  Orientation signs are all +1, which the
    validator reports as incoherent.
    """
    group = trivial_group()
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
    ident = group.identity()
    labels = {}
    for t in triangles:
        for i in range(3):
            for j in range(i + 1, 3):
                labels[(t[i], t[j])] = ident
    q = _complex_from_triangles(group, names, triangles, labels, name="klein")
    q.orientation = {idx: 1 for idx in q.cells(2)}
    return q


# ---------------------------------------------------------------------------
# Genus-2 surface over its one-relator group


def genus2_surface() -> QuotientComplex:
    """Triangulated genus-2 surface labeled over its surface group.

    Construction: the identification octagon a b a^-1 b^-1 c d c^-1 d^-1 is
    coned from its center to the 16 boundary positions (corners and side
    midpoints), the disk is barycentrically subdivided once, and boundary
    positions are identified by the side pairings.  Every boundary position
    carries a development word (the deck element moving the canonical lift
    of its class to that position); an edge label is then tail^-1 * head.
    The identified complex is simplicial with (V, E, F) = (46, 144, 96).
    """
    group = SurfaceGroup(2)
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
    forward = {0: 2, 1: 3, 4: 6, 5: 7}  # forward side -> paired reverse side
    reverse_of = {v: k for k, v in forward.items()}
    letter_name = {0: "a", 1: "b", 4: "c", 5: "d"}

    # disk positions: center, corners P_k, side midpoints M_k
    pos_c = "c"
    pos_P = [f"P{k}" for k in range(8)]
    pos_M = [f"M{k}" for k in range(8)]
    boundary = []
    for k in range(8):
        boundary.append(pos_P[k])
        boundary.append(pos_M[k])
    disk_vertices = [pos_c] + boundary
    fan = []
    for i in range(16):
        fan.append((pos_c, boundary[i], boundary[(i + 1) % 16]))

    # barycentric subdivision of the fan disk, tracked on named cells
    disk_cells = []  # (dim, frozen vertex set, canonical tuple)
    cell_id = {}

    def add_cell(tup):
        key = (len(tup) - 1, frozenset(tup))
        if key not in cell_id:
            cell_id[key] = len(disk_cells)
            disk_cells.append((len(tup) - 1, tuple(sorted(tup))))
        return cell_id[key]

    for v in disk_vertices:
        add_cell((v,))
    disk_edges = set()
    for tri in fan:
        for i in range(3):
            for j in range(i + 1, 3):
                disk_edges.add(tuple(sorted((tri[i], tri[j]))))
    for e in sorted(disk_edges):
        add_cell(e)
    for tri in fan:
        add_cell(tri)

    sd_triangles = []  # flags (vertex cell, edge cell, triangle cell)
    for tri in fan:
        t_id = add_cell(tri)
        for i in range(3):
            for j in range(i + 1, 3):
                e_id = add_cell((tri[i], tri[j]))
                for v in (tri[i], tri[j]):
                    sd_triangles.append((add_cell((v,)), e_id, t_id))

    # identification of boundary cells and development words
    ident_class = {}
    dev_word = {}
    for cid, (dim, tup) in enumerate(disk_cells):
        ident_class[cid] = f"cell{cid}"
        dev_word[cid] = group.identity()
    # interior cells keep their own class and identity word; boundary cells:
    for k in range(8):
        pid = add_cell((pos_P[k],))
        ident_class[pid] = "v0"
        dev_word[pid] = omega[k]
    for k in range(8):
        mid = add_cell((pos_M[k],))
        if k in forward:
            ident_class[mid] = f"m_{letter_name[k]}"
            dev_word[mid] = omega[k]
        else:
            kf = reverse_of[k]
            ident_class[mid] = f"m_{letter_name[kf]}"
            dev_word[mid] = omega[k + 1]
    for k in range(8):
        # half edges of side k: (P_k, M_k) and (M_k, P_{k+1})
        h0 = add_cell((pos_P[k], pos_M[k]))
        h1 = add_cell((pos_M[k], pos_P[(k + 1) % 8]))
        if k in forward:
            ident_class[h0] = f"h_{letter_name[k]}1"
            ident_class[h1] = f"h_{letter_name[k]}2"
            dev_word[h0] = omega[k]
            dev_word[h1] = omega[k]
        else:
            kf = reverse_of[k]
            # side k traverses the letter backwards: its first half is the
            # letter's second half and vice versa
            ident_class[h0] = f"h_{letter_name[kf]}2"
            ident_class[h1] = f"h_{letter_name[kf]}1"
            dev_word[h0] = omega[k + 1]
            dev_word[h1] = omega[k + 1]

    class_names = sorted(set(ident_class.values()))
    class_vid = {name: i for i, name in enumerate(class_names)}

    labels_by_pair = {}
    triangles = []
    for (vc, ec, tc) in sd_triangles:
        ids = (vc, ec, tc)
        verts = tuple(class_vid[ident_class[c]] for c in ids)
        if len(set(verts)) != 3:
            raise InternalError("identification collapsed a subdivision triangle")
        triangles.append(verts)
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                u, v = ids[x], ids[y]
                lbl = group.multiply(group.inverse(dev_word[u]), dev_word[v])
                key = (class_vid[ident_class[u]], class_vid[ident_class[v]])
                if key in labels_by_pair and labels_by_pair[key] != lbl:
                    raise InternalError(
                        "inconsistent development words on an identified edge")
                labels_by_pair[key] = lbl

    # dedupe triangles arising twice through identified boundary edges
    seen = {}
    unique = []
    for t in triangles:
        key = tuple(sorted(t))
        if key not in seen:
            seen[key] = t
            unique.append(t)
    q = _build_unoriented(group, class_names, unique, labels_by_pair, name="genus2")
    q.orientation = orient_pseudomanifold(q)
    q2 = gauge_normalize(q)
    return q2


def _build_unoriented(group, vertex_names, triangles, labels_by_pair, name=""):
    edges = set()
    tris = sorted(tuple(sorted(t)) for t in triangles)
    for t in tris:
        edges |= {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
    simplices = [
        [(v,) for v in range(len(vertex_names))],
        sorted(edges),
        tris,
    ]
    labels = {}
    for eidx, (u, v) in enumerate(simplices[1]):
        if (u, v) in labels_by_pair:
            labels[eidx] = labels_by_pair[(u, v)]
        elif (v, u) in labels_by_pair:
            labels[eidx] = group.inverse(labels_by_pair[(v, u)])
        else:
            raise InputError(f"no label for edge {(u, v)}")
    q = QuotientComplex(group, vertex_names, simplices,
                        {i: 1 for i in range(len(tris))}, labels, name=name)
    return q


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
