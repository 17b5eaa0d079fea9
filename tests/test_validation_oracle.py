"""The array validator against a reference: the tuple-keyed
``validate_quotient`` it replaced, kept here verbatim except that it builds
its own simplex -> id dicts.  Random single defects of two documents must
give both the same violations, in the same order.  Also the exact row lookup
behind the array validator and subdivision, on ids far beyond any vertex
count."""

import functools
import itertools
import operator
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deckindex.complexes import (QuotientComplex, ValidationReport, _row_ids, _row_keys,
                                 barycentric_subdivide, validate_quotient)
from deckindex.fixtures import fixture_complex


def reference_validate_quotient(q: QuotientComplex) -> ValidationReport:
    """Check the pseudomanifold, orientation, cocycle and complex conditions."""
    report = ValidationReport()
    n = q.dimension
    index = [dict(zip(dim_list, itertools.count())) for dim_list in q.simplices]

    # simplicial-complex condition: all faces present.  facets[k][j] holds,
    # per k-simplex, the id of its facet that omits position j (None when
    # that face is missing); the checks below read these ids
    facets = [[]]
    for k in range(1, n + 1):
        cols = [list(map(operator.itemgetter(j), q.simplices[k])) for j in range(k + 1)]
        get = index[k - 1].get
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
        for face, f in zip(faces, map(index[n - 1].__getitem__, faces)):
            if count[f] != 2:
                report.add("pseudomanifold condition",
                           f"face {face} lies in {count[f]} top simplices (expected 2)")
            elif total[f] != 0:
                report.add("orientation coherence",
                           f"induced orientations on face {face} agree "
                           "instead of being opposite")
    return report


DOCUMENTS = {
    "genus2-sd1": barycentric_subdivide(fixture_complex("genus2"), 1).complex.to_document(),
    "octahedron": fixture_complex("octahedron").to_document(),
}
WORDS = ("", "a1", "-b2", "a1 b1", "b1 -a2 a2")


@st.composite
def single_defects(draw):
    """A deep copy of a document with one defect: a simplex of dimension 1
    or more dropped, a sign flipped or dropped, or an edge relabelled."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = DOCUMENTS[name]
    doc = dict(doc, simplices={k: list(v) for k, v in doc["simplices"].items()},
               orientation=dict(doc["orientation"]), labels=dict(doc["labels"]))
    defect = draw(st.sampled_from(["drop-simplex", "flip-sign", "drop-sign", "relabel"]))
    if defect == "drop-simplex":
        rows = doc["simplices"][str(draw(st.integers(1, doc["dimension"])))]
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    elif defect == "relabel":
        key = draw(st.sampled_from(sorted(doc["labels"])))
        doc["labels"][key] = draw(st.sampled_from(WORDS if name == "genus2-sd1" else ("",)))
    else:
        key = draw(st.sampled_from(sorted(doc["orientation"])))
        if defect == "flip-sign":
            doc["orientation"][key] *= -1
        else:
            del doc["orientation"][key]
    return doc


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(single_defects())
def test_violations_match_the_reference(doc):
    q = QuotientComplex.from_document(doc)
    assert validate_quotient(q).violations == reference_validate_quotient(q).violations


# single defects written through the mappings of a subdivision as it was
# handed over: the validator must read what was written, so both agree
SUBDIVIDED = {name: fixture_complex(name) for name in ("genus2", "torus")}
SUBDIVIDED_WORDS = {"genus2": WORDS, "torus": ("", "a", "-b", "a b", "a a -b")}


@st.composite
def written_defects(draw):
    name = draw(st.sampled_from(sorted(SUBDIVIDED)))
    q = barycentric_subdivide(SUBDIVIDED[name], 1).complex
    defect = draw(st.sampled_from(["write-label", "delete-label", "flip-sign", "sign-two"]))
    if defect in ("write-label", "delete-label"):
        e = draw(st.integers(0, q.count(1) - 1))
        if defect == "delete-label":
            del q.labels[e]
        else:
            q.labels[e] = q.group.parse_word(draw(st.sampled_from(SUBDIVIDED_WORDS[name])))
    else:
        t = draw(st.integers(0, q.count(2) - 1))
        q.orientation[t] = -q.orientation[t] if defect == "flip-sign" else 2
    return q


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(written_defects())
def test_defects_written_through_the_mappings_match_the_reference(q):
    assert validate_quotient(q).violations == reference_validate_quotient(q).violations


def test_unlabelled_complexes_match_the_reference():
    # with no label at all the identity is in no table, and every tree edge
    # is still reported
    for name in ("octahedron", "torus", "genus2"):
        doc = dict(fixture_complex(name).to_document(), labels={})
        q = QuotientComplex.from_document(doc)
        assert not q.labels and q.tree
        assert validate_quotient(q).violations == reference_validate_quotient(q).violations


def test_shipped_complexes_match_the_reference():
    for name in ("tetrahedron", "octahedron", "torus", "csaszar", "klein", "genus2"):
        q = fixture_complex(name)
        assert validate_quotient(q).violations == reference_validate_quotient(q).violations


def _dict_lookup(table, rows):
    index = {tuple(r): i for i, r in enumerate(table.tolist())}
    return [index.get(tuple(r), -1) for r in rows.tolist()]


def test_row_lookup_with_ids_near_two_to_the_forty():
    # with ids up to 2**40 + 7 a row key a * (2**40 + 8) + b would wrap in
    # int64, and (2**40, 64) would then meet (8, 0)
    big = 2 ** 40
    table = np.array([[big, 64], [big + 3, big + 5], [3, big + 7], [big + 1, big]])
    rows = np.array([[8, 0], [big + 1, big], [big, 64], [big + 5, big + 3], [3, big + 7],
                     [big + 3, big + 5], [0, 0], [big + 1, big + 1]])
    assert _row_ids(table, rows).tolist() == [-1, 3, 0, -1, 2, 1, -1, -1]


def test_row_lookup_with_ids_near_two_to_the_sixty_two():
    # past 2**62 the ids themselves are ranked first; folded unranked, the
    # key of (4, 0) would wrap onto the key of (0, 4)
    table = np.array([[0, 2 ** 62], [1, 0], [2, 0], [3, 0], [4, 0]])
    rows = np.array([[0, 4], [4, 0], [0, 2 ** 62], [-1, 0]])
    assert _row_ids(table, rows).tolist() == [-1, 4, 0, -1]


def test_row_lookup_is_exact_for_any_ids():
    # ids near 2**40 and 2**62 and negative ones, in two to four columns:
    # every lookup agrees with a dict of tuples, and equal keys mean equal
    # rows
    rng = random.Random(15)
    pools = [range(50), [2 ** 40 + rng.randrange(2 ** 30) for _ in range(9)] + [0, 1],
             [2 ** 62 + i for i in range(5)] + [-(2 ** 62) - i for i in range(5)] + [7]]
    for pool, width in itertools.product(pools, (2, 3, 4)):
        rows = np.array([[rng.choice(pool) for _ in range(width)] for _ in range(300)])
        table = np.unique(rows[:150], axis=0)[::-1]
        assert _row_ids(table, rows).tolist() == _dict_lookup(table, rows)
        keys = _row_keys(rows).tolist()
        assert len(set(keys)) == len(set(zip(keys, map(tuple, rows.tolist()))))
