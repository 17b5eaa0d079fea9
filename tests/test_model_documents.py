"""Map and field documents keep the exit-code contract: a malformed
document exits 1 with an ``error:`` line, never 3 (an internal error)."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deckindex.cli import main
from deckindex.fixtures import fixture_document

COMMANDS = ("map-analyze", "field-analyze")


def _run(command, doc, out_dir):
    path = os.path.join(out_dir, "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return main([command, path, "--out", os.path.join(out_dir, "out")])


def _with(name, **changes):
    """A shipped document with keys changed; a key set to None is dropped."""
    doc = fixture_document(name)
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


def _override_without_components():
    doc = fixture_document("sin-field-override")
    del doc["overrides"][0]["components"]
    return doc


def _unknown_vertex_image():
    doc = fixture_document("octahedron-rotation")
    doc["vertex_images"]["px"] = "nowhere"
    return doc


MALFORMED = [
    ("missing components", COMMANDS, lambda: _with("sin-map", components=None)),
    ("override without components", COMMANDS, _override_without_components),
    ("non-numeric bound", COMMANDS, lambda: _with("sin-map", bound="abc")),
    ("negative bound", COMMANDS, lambda: _with("sin-map", bound="-2")),
    ("negative PL bound", ("field-analyze",),
     lambda: _with("octahedron-polar-field", bound="-2")),
    ("non-integer grid", COMMANDS, lambda: _with("sin-map", grid="x")),
    ("zero grid", COMMANDS, lambda: _with("sin-map", grid=0)),
    ("unknown vertex image", ("map-analyze",), _unknown_vertex_image),
    ("PL field without vertex vectors", ("field-analyze",),
     lambda: _with("octahedron-polar-field", vertex_vectors=None)),
]


@pytest.mark.parametrize("command,make", [
    pytest.param(command, make, id=f"{label}-{command}")
    for label, commands, make in MALFORMED for command in commands])
def test_malformed_document_exits_one(command, make, tmp_path, capsys):
    assert _run(command, make(), str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: ")


# Top-level mutations of shipped documents: drop a key, or set a key (one
# of the document's own or an optional one) to a small junk value.
SHIPPED = {"sin-map": "map-analyze", "sin-field-override": "field-analyze",
           "octahedron-rotation": "map-analyze",
           "octahedron-polar-field": "field-analyze"}
OPTIONAL_KEYS = ("grid", "overrides", "subdivision")
JUNK = ("x", -1, 0, 1.5, None, [], {})
DROP = "<drop>"


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    doc = fixture_document(name)
    key = draw(st.sampled_from(sorted(doc) + [k for k in OPTIONAL_KEYS if k not in doc]))
    value = draw(st.sampled_from(([DROP] if key in doc else []) + list(JUNK)))
    if value == DROP:
        del doc[key]
    else:
        doc[key] = value
    return SHIPPED[name], doc


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(mutations())
def test_mutated_document_never_exits_three(mutation):
    command, doc = mutation
    with tempfile.TemporaryDirectory() as out_dir:
        assert _run(command, doc, out_dir) in (0, 1, 2)
