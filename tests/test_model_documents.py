"""Map, field and complex documents keep the exit-code contract: a
malformed document exits 1 with an ``error:`` line, never 3 (an internal
error)."""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deckindex import complexes, fixpoint
from deckindex.cli import main
from deckindex.complexes import QuotientComplex, barycentric_subdivide
from deckindex.fixpoint import SimplicialMapModel
from deckindex.fixtures import fixture_complex, fixture_document

COMMANDS = ("map-analyze", "field-analyze")


def _run(command, doc, out_dir, *options):
    path = os.path.join(out_dir, "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return main([command, path, "--out", os.path.join(out_dir, "out"), *options])


def _with(name, **changes):
    """A shipped document with keys changed; a key set to None is dropped."""
    doc = fixture_document(name)
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


def _override_without_components():
    doc = fixture_document("sin-field-override")
    del doc["overrides"][0]["components"]
    return doc


def _with_override(*overrides):
    """The overridden sin field with its override list replaced."""
    doc = fixture_document("sin-field-override")
    doc["overrides"] = list(overrides)
    return doc


SEAM_COMPONENTS = fixture_document("sin-field-override")["overrides"][0]["components"]


def _vertex_image(image):
    doc = fixture_document("octahedron-rotation")
    doc["vertex_images"]["px"] = image
    return doc


def _vertex_vector(vector):
    doc = fixture_document("octahedron-polar-field")
    doc["vertex_vectors"]["px"] = vector
    return doc


def _inline_complex_without_labels(name):
    doc = fixture_document(name)
    doc["complex"] = fixture_complex(doc.pop("fixture")).to_document()
    del doc["complex"]["labels"]
    return doc


MALFORMED = [
    ("missing components", COMMANDS, lambda: _with("sin-map", components=None)),
    ("override without components", COMMANDS, _override_without_components),
    ("override with one component", COMMANDS, lambda: _with_override(
        {"translate": "a a", "components": ["sin(2*pi*x)"]})),
    ("override with three components", COMMANDS, lambda: _with_override(
        {"translate": "a a", "components": ["sin(2*pi*x)", "sin(2*pi*y)", "0"]})),
    ("repeated override translate", COMMANDS, lambda: _with_override(
        {"translate": "a a", "components": SEAM_COMPONENTS},
        {"translate": "a a", "components": ["sin(2*pi*x)", "sin(2*pi*y)"]})),
    ("components as a string", COMMANDS,
     lambda: _with("sin-map", components="sin(2*pi*x)")),
    ("components as an object", COMMANDS, lambda: _with(
        "sin-map", components={"sin(2*pi*x)/5": 0, "sin(2*pi*y)/5": 1})),
    ("override components as a string", COMMANDS, lambda: _with_override(
        {"translate": "a a", "components": "sin(2*pi*x)"})),
    ("non-numeric bound", COMMANDS, lambda: _with("sin-map", bound="abc")),
    ("negative bound", COMMANDS, lambda: _with("sin-map", bound="-2")),
    ("negative PL bound", ("field-analyze",),
     lambda: _with("octahedron-polar-field", bound="-2")),
    ("non-integer grid", COMMANDS, lambda: _with("sin-map", grid="x")),
    ("zero grid", COMMANDS, lambda: _with("sin-map", grid=0)),
    ("fractional grid", COMMANDS, lambda: _with("sin-map", grid=8.9)),
    ("fractional subdivision", ("map-analyze",),
     lambda: _with("octahedron-rotation", subdivision=0.5)),
    ("unknown vertex image", ("map-analyze",), lambda: _vertex_image("nowhere")),
    ("fractional vertex image", ("map-analyze",), lambda: _vertex_image(1.7)),
    ("image pair of one entry", ("map-analyze",), lambda: _vertex_image([""])),
    ("image pair of three entries", ("map-analyze",),
     lambda: _vertex_image(["", "py", 3])),
    ("vertex vector of two components", ("field-analyze",),
     lambda: _vertex_vector(["1", "0"])),
    ("vertex vector of four components", ("field-analyze",),
     lambda: _vertex_vector(["1", "0", "0", "0"])),
    ("vertex vector with a zero denominator", ("field-analyze",),
     lambda: _vertex_vector(["1/0", "0", "0"])),
    ("vertex vector as a string", ("field-analyze",), lambda: _vertex_vector("011")),
    ("boolean vertex vector entry", ("field-analyze",),
     lambda: _vertex_vector([True, "0", "0"])),
    ("bound with a zero denominator", COMMANDS, lambda: _with("sin-map", bound="1/0")),
    ("PL bound with a zero denominator", ("field-analyze",),
     lambda: _with("octahedron-polar-field", bound="1/0")),
    ("PL field without vertex vectors", ("field-analyze",),
     lambda: _with("octahedron-polar-field", vertex_vectors=None)),
    ("inline complex without labels", ("map-analyze",),
     lambda: _inline_complex_without_labels("octahedron-rotation")),
    ("inline complex without labels", ("field-analyze",),
     lambda: _inline_complex_without_labels("octahedron-polar-field")),
]


# what the refusal of a malformed component list names
NAMED = {
    "override with one component": "override at 'a a'",
    "override with three components": "override at 'a a'",
    "repeated override translate": "override at 'a a'",
    "components as a string": "'components'",
    "components as an object": "'components'",
    "override components as a string": "'components'",
    "fractional grid": "'grid'",
    "fractional subdivision": "'subdivision'",
    "fractional vertex image": "'vertex_images'",
    "image pair of one entry": "'vertex_images'",
    "image pair of three entries": "'vertex_images'",
    "vertex vector of two components": "'px'",
    "vertex vector of four components": "'px'",
    "vertex vector with a zero denominator": "'vertex_vectors'",
    "vertex vector as a string": "'vertex_vectors'",
    "boolean vertex vector entry": "'vertex_vectors'",
    "bound with a zero denominator": "'bound'",
    "PL bound with a zero denominator": "'bound'",
}


@pytest.mark.parametrize("label,command,make", [
    pytest.param(label, command, make, id=f"{label}-{command}")
    for label, commands, make in MALFORMED for command in commands])
def test_malformed_document_exits_one(label, command, make, tmp_path, capsys):
    assert _run(command, make(), str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and NAMED.get(label, "") in err


# Mutations of shipped documents: drop a top-level key, set one (of the
# document's own or an optional one) to a small junk value, or set a nested
# entry (a vertex image, a vertex vector, an override's translate or
# components) to a junk value.
SHIPPED = {"sin-map": "map-analyze", "sin-field-override": "field-analyze",
           "octahedron-rotation": "map-analyze",
           "octahedron-polar-field": "field-analyze"}
OPTIONAL_KEYS = ("grid", "overrides", "subdivision")
JUNK = ("x", -1, 0, 1.5, None, [], {})
DROP = "<drop>"


def _mutate(draw, doc, optional_keys):
    key = draw(st.sampled_from(sorted(doc) + [k for k in optional_keys if k not in doc]))
    value = draw(st.sampled_from(([DROP] if key in doc else []) + list(JUNK)))
    if value == DROP:
        del doc[key]
    else:
        doc[key] = value
    return doc


def _nested_entries(doc):
    """(container, key) of every nested entry of a model document."""
    return ([(doc[name], key) for name in ("vertex_images", "vertex_vectors")
             if name in doc for key in sorted(doc[name])]
            + [(ov, key) for ov in doc.get("overrides", ())
               for key in ("translate", "components")])


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    doc = fixture_document(name)
    entries = _nested_entries(doc)
    if entries and draw(st.booleans()):
        container, key = draw(st.sampled_from(entries))
        container[key] = draw(st.sampled_from(JUNK))
        return SHIPPED[name], doc
    return SHIPPED[name], _mutate(draw, doc, OPTIONAL_KEYS)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(mutations())
def test_mutated_document_never_exits_three(mutation):
    command, doc = mutation
    with tempfile.TemporaryDirectory() as out_dir:
        assert _run(command, doc, out_dir) in (0, 1, 2)


# The same mutations of shipped complex documents under ``validate``, with
# and without a subdivision.
COMPLEXES = ("genus2", "octahedron", "torus")
COMPLEX_OPTIONAL_KEYS = ("coordinates", "name", "tree")


@st.composite
def complex_mutations(draw):
    doc = fixture_complex(draw(st.sampled_from(COMPLEXES))).to_document()
    subdivide = draw(st.sampled_from(((), ("--subdivide", "1"))))
    return _mutate(draw, doc, COMPLEX_OPTIONAL_KEYS), subdivide


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(complex_mutations())
def test_mutated_complex_never_exits_three(mutation):
    doc, subdivide = mutation
    with tempfile.TemporaryDirectory() as out_dir:
        assert _run("validate", doc, out_dir, *subdivide) in (0, 1, 2)


WRONGLY_TYPED = [(key, value)
                 for key in ("simplices", "orientation", "labels", "coordinates")
                 for value in (None, [], "x", 5)] + [("tree", [[1]]), ("tree", 5)]


@pytest.mark.parametrize("key,value", WRONGLY_TYPED,
                         ids=[f"{key}={json.dumps(value)}" for key, value in WRONGLY_TYPED])
def test_wrongly_typed_complex_entry_is_named(key, value, tmp_path, capsys):
    doc = fixture_complex("torus").to_document()
    doc[key] = value
    assert _run("validate", doc, str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed complex document: ")
    assert repr(key) in err


def _torus_under_b(row):
    """The fixed-point-free simplicial map v -> (b, v) on the inline torus,
    each coordinate row replaced by ``row(it)``."""
    doc = fixture_complex("torus").to_document()
    doc["coordinates"] = {v: row(r) for v, r in doc["coordinates"].items()}
    return {"variant": "simplicial", "complex": doc,
            "vertex_images": {v: ["b", v] for v in doc["vertices"]}}


@pytest.mark.parametrize("row", [lambda r: r[:1], lambda r: r + ["7/3"]],
                         ids=["x-entry-only", "third-entry"])
def test_coordinates_of_the_wrong_width_over_z2_are_refused(row, tmp_path, capsys):
    # a point and its deck translation have one entry per generator
    assert _run("map-analyze", _torus_under_b(row), str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed complex document: 'coordinates' ")
    assert "2 entries over Z^2" in err


@pytest.mark.parametrize("row", [["1/0", "0", "0"], "100", [True, "0", "0"]],
                         ids=["zero-denominator", "string", "boolean"])
def test_unreadable_coordinate_row_is_named(row, tmp_path, capsys):
    doc = fixture_complex("octahedron").to_document()
    doc["coordinates"]["px"] = row
    assert _run("validate", doc, str(tmp_path), "--subdivide", "1") == 1
    assert capsys.readouterr().err.startswith(
        "error: malformed complex document: 'coordinates': ")


# malformed keys of a complex document, each refused and named: a list of
# 3-simplices in a dimension-2 document, label and tree keys naming three
# vertices, and a JSON boolean as an orientation sign
MALFORMED_KEYS = {
    "simplices-above-dimension": (
        lambda d: d["simplices"].update({"3": [["px", "py", "pz", "mx"]]}),
        "'simplices' key '3'"),
    "label-of-three-vertices": (
        lambda d: d["labels"].update({"px|py|pz": ""}), "'labels' edge 'px|py|pz'"),
    "tree-of-three-vertices": (
        lambda d: d["tree"].append("px|py|pz"), "'tree' edge 'px|py|pz'"),
    "boolean-orientation-sign": (
        lambda d: d["orientation"].update({"px|py|pz": True}),
        "'orientation' sign of 'px|py|pz'"),
}


@pytest.mark.parametrize("defect", list(MALFORMED_KEYS))
def test_malformed_complex_key_is_named(defect, tmp_path, capsys):
    mutate, named = MALFORMED_KEYS[defect]
    doc = fixture_complex("octahedron").to_document()
    assert doc["orientation"]["px|py|pz"] == 1 and doc["tree"]
    mutate(doc)
    assert _run("validate", doc, str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed complex document: ")
    assert named in err


def _fractional_orientation_sign():
    doc = fixture_complex("torus").to_document()
    key = sorted(doc["orientation"])[0]
    doc["orientation"][key] *= 1.5
    return doc


@pytest.mark.parametrize("make", [
    pytest.param(lambda: dict(fixture_complex("torus").to_document(), dimension=2.9),
                 id="dimension"),
    pytest.param(_fractional_orientation_sign, id="orientation-sign")])
def test_fractional_complex_integer_is_refused(make, tmp_path, capsys):
    assert _run("validate", make(), str(tmp_path)) == 1
    assert "is not an integer" in capsys.readouterr().err


def _antipode_of_first_vertex(times=1):
    """Octahedron map at subdivision ``times`` sending the barycenter of each
    cell to the antipode of the octahedron vertex its first vertex goes to,
    the cell's own first vertex at subdivision 1: the octahedron, its
    subdivision and the images by vertex id."""
    octa = fixture_complex("octahedron")
    antipode = {octa.vertices.index(v): octa.vertices.index(w) for v, w in
                fixture_document("octahedron-antipodal")["vertex_images"].items()}
    q, first = octa, {v: v for v in octa.cells(0)}
    for _ in range(times):
        sub = barycentric_subdivide(q, 1)
        first = {sub.cell_vertex[k][idx]: first[s[0]]
                 for k in range(q.dimension + 1) for idx, s in enumerate(q.simplices[k])}
        q = sub.complex
    return octa, q, {v: antipode[w] for v, w in first.items()}


def test_twice_subdivided_source_vertices_are_named(tmp_path, capsys, monkeypatch):
    # names are built on read: the document's keys, from the naming rule
    # applied level by level ("(px+py)", "(px+(px+py))", ...), still resolve
    octa, source, images = _antipode_of_first_vertex(2)
    q, names = octa, list(octa.vertices)
    for _ in range(2):
        names = [names[v] for (v,) in q.simplices[0]] + \
            ["(" + "+".join(names[v] for v in s) + ")" for dim in q.simplices[1:] for s in dim]
        q = barycentric_subdivide(q).complex
    assert {"(px+py)", "(px+(px+py))"} <= set(names)
    doc = {"variant": "simplicial", "fixture": "octahedron", "subdivision": 2,
           "vertex_images": {names[v]: octa.vertices[w] for v, w in images.items()}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["map-analyze", str(path)]) == 0
    from_document = capsys.readouterr().out
    monkeypatch.setattr(fixpoint, "map_model_from_document",
                        lambda doc: SimplicialMapModel(octa, 2, images))
    assert main(["map-analyze", str(path)]) == 0
    assert from_document == capsys.readouterr().out


def test_names_bind_when_vertices_are_listed_out_of_order(tmp_path, capsys):
    # an inline complex that lists its 0-simplices out of vertex order gets
    # the same subdivision vertex names, so a name-keyed document binds
    # every image to the same vertex and the report does not change
    octa, source, images = _antipode_of_first_vertex()
    vertex_images = {source.vertices[v]: octa.vertices[w] for v, w in images.items()}
    out = []
    for order in (1, -1):
        complex_doc = octa.to_document()
        complex_doc["simplices"]["0"] = complex_doc["simplices"]["0"][::order]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"variant": "simplicial", "complex": complex_doc,
                                    "subdivision": 1, "vertex_images": vertex_images}),
                        encoding="utf-8")
        assert main(["map-analyze", str(path)]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


@pytest.mark.parametrize("keys", ["names", "ids"])
def test_subdivided_source_vertices_are_named(keys, tmp_path, capsys, monkeypatch):
    # source keys are vertices of the subdivision, by name or by decimal id
    # (a JSON object key is a string); image values are target vertices
    octa, source, images = _antipode_of_first_vertex()
    key = (lambda v: source.vertices[v]) if keys == "names" else str
    doc = {"variant": "simplicial", "fixture": "octahedron", "subdivision": 1,
           "vertex_images": {key(v): octa.vertices[w] for v, w in images.items()}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["map-analyze", str(path)]) == 0
    from_document = capsys.readouterr().out
    monkeypatch.setattr(fixpoint, "map_model_from_document",
                        lambda doc: SimplicialMapModel(octa, 1, images))
    assert main(["map-analyze", str(path)]) == 0
    assert from_document == capsys.readouterr().out


def test_id_keyed_subdivided_model_builds_no_vertex_name(tmp_path, monkeypatch):
    # "--subdivide 2" carries the level-0 map over with images keyed by
    # vertex id, so the reader of the subdivided source builds no name index
    # and no subdivision names its vertices; the report bytes are unchanged
    def no_names(names):
        raise AssertionError("a vertex name was built")

    monkeypatch.setattr(complexes._BarycenterNames, "_names", property(no_names))
    out = tmp_path / "out"
    assert main(["map-analyze", "fixture:octahedron-antipodal", "--subdivide", "2",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == \
        "62ccb6b0fe18e91fd5f7d00e65c4c4a906bfc8046121d72a9ff73ac7907b9276"


def test_vertex_id_reader_reads_names_ids_and_decimal_keys():
    # a name wins over an id, a decimal string is an id, an int is read as
    # an integer field; the name index is built on the first string only
    named = []
    q = fixture_complex("tetrahedron")
    names = ["1", "0", *q.vertices[2:]]

    class Names(list):
        def __iter__(self):
            named.append(True)
            return super().__iter__()

    q = QuotientComplex(q.group, Names(names), q._rows, q.orientation, q.labels)
    read = fixpoint.vertex_id_reader(q)
    assert [read(0), read(3), read(2.0)] == [0, 3, 2] and not named
    assert [read("1"), read("0"), read("3"), read(names[2])] == [0, 1, 3, 2]
    assert named == [True]
    for value, error in [(True, ValueError), ("1_0", KeyError), ("x", KeyError),
                         (2.5, ValueError), (None, TypeError)]:
        with pytest.raises(error):
            read(value)
