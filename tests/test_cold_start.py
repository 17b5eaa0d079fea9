"""Start-up loads only what a command runs: mpmath and the expression
module arrive with the first analytic expression, never with the CLI and
pipeline modules, sympy never loads, and the group commands (word
arithmetic, balls and flows) and the index-data analyses load no numpy
and no cover-side module either.  The group side (``groups``, ``classes``
and ``ufh``) loads nothing of the cover side, and ``validate`` loads no
``ufh``.

Each check runs in a fresh interpreter, since an earlier test in this
process may already have imported these modules.
"""

import ast
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import contextlib, importlib, io, json, sys
preload, watched, commands = json.loads(sys.argv[1])
for name in preload:
    importlib.import_module(name)
import deckindex.cli

def loaded():
    return sorted(m for m in watched if m in sys.modules)

seen = {"import": loaded()}
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = deckindex.cli.main(argv)
    seen[" ".join(argv)] = [code, loaded()]
print(json.dumps(seen))
"""


def _probe(*commands, preload=("deckindex.fixpoint", "deckindex.vectorfield"),
           watched=("mpmath", "sympy")):
    """Modules of ``watched`` loaded after importing ``deckindex.cli`` and
    ``preload``, then after each command, all in one fresh interpreter."""
    return _fresh(PROBE, json.dumps([preload, watched, commands]))


def _fresh(code, *args):
    """The JSON printed by ``code`` run in a fresh interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# the cover-side modules an analysis of a map or field runs through
PIPELINE = ("deckindex.chains", "deckindex.complexes", "deckindex.exprs",
            "deckindex.fixpoint", "deckindex.geometry", "deckindex.vectorfield")


def test_group_commands_load_no_numpy_or_sympy():
    # word arithmetic, balls and flows are pure Python: a cold group command
    # pays no numpy import
    seen = _probe(["amenability", "fixture:genus2", "--radius", "3"],
                  ["decide-class", "fixture:free-cover-index"],
                  preload=(), watched=("mpmath", "numpy", "sympy"))
    assert seen == {"import": [],
                    "amenability fixture:genus2 --radius 3": [0, []],
                    "decide-class fixture:free-cover-index": [0, []]}


def test_index_data_analyses_load_no_numpy():
    # an index-data document is a class function: the analysis reads it on
    # the group side and never imports the pipeline modules
    seen = _probe(["map-analyze", "fixture:connected-sum-index"],
                  ["field-analyze", "fixture:connected-sum-index"],
                  preload=(), watched=("mpmath", "numpy", "sympy") + PIPELINE)
    assert seen == {"import": [],
                    "map-analyze fixture:connected-sum-index": [0, []],
                    "field-analyze fixture:connected-sum-index": [0, []]}


def test_exact_commands_never_load_sympy():
    seen = _probe(["validate", "fixture:genus2"],
                  ["map-analyze", "fixture:octahedron-antipodal"],
                  ["map-analyze", "fixture:connected-sum-index"])
    assert seen == {"import": [],
                    "validate fixture:genus2": [0, []],
                    "map-analyze fixture:octahedron-antipodal": [0, []],
                    "map-analyze fixture:connected-sum-index": [0, []]}


def test_analytic_model_loads_mpmath_not_sympy():
    # importing the CLI and the pipeline modules compiles no expression code
    seen = _probe(["map-analyze", "fixture:sin-map"],
                  ["field-analyze", "fixture:sin-field-override"],
                  watched=("deckindex.exprs", "mpmath", "sympy"))
    loaded = ["deckindex.exprs", "mpmath"]
    assert seen == {"import": [],
                    "map-analyze fixture:sin-map": [0, loaded],
                    "field-analyze fixture:sin-field-override": [0, loaded]}


def test_no_module_imports_sympy():
    # every import statement of the package, function-local ones included
    for name in sorted(os.listdir(os.path.join(SRC, "deckindex"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "deckindex", name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert not any(m.split(".")[0] == "sympy" for m in modules), name


COVER_SIDE = ("deckindex.chains", "deckindex.complexes", "deckindex.exprs",
              "deckindex.fixpoint", "numpy")


def test_group_commands_load_no_cover_side(tmp_path):
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"group": {"kind": "free-abelian", "rank": 2},
                                "constant": 0, "finite": [["a", 1], ["b", -1]]}))
    seen = _probe(["decide-class", "fixture:free-cover-index"],
                  ["decide-class", str(path)],
                  ["amenability", "fixture:genus2", "--radius", "3"],
                  preload=(), watched=COVER_SIDE)
    assert list(seen.values()) == [[], [0, []], [0, []], [0, []]]


def test_validate_loads_no_ufh():
    seen = _probe(["validate", "fixture:genus2"], preload=(),
                  watched=("deckindex.ufh",))
    assert seen == {"import": [], "validate fixture:genus2": [0, []]}


def _loaded_by(statement):
    return _fresh(f"import json, sys; {statement}; print(json.dumps(sorted("
                  "m for m in sys.modules if m.startswith('deckindex'))))")


def test_expression_module_loads_no_numpy_or_mpmath():
    # its operation tables name only the operator module; numpy and mpmath
    # arrive with the first float or interval evaluator
    assert _fresh("import json, sys, deckindex.exprs; print(json.dumps(sorted("
                  "m for m in ('mpmath', 'numpy') if m in sys.modules)))") == []


def test_groups_import_loads_only_groups_and_errors():
    assert _loaded_by("import deckindex.groups") == \
        ["deckindex", "deckindex.errors", "deckindex.groups"]


def test_group_side_imports_nothing_from_the_cover_side():
    # every import statement, function-local ones included, and what the
    # allowed ones load in turn
    cover = {"complexes", "chains", "fixpoint", "exprs", "fixtures", "cli"}
    for name in ("classes", "ufh"):
        with open(os.path.join(SRC, "deckindex", f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                targets = {a.name.removeprefix("deckindex.") for a in node.names}
            else:
                continue
            assert not targets & cover, (name, targets)
    loaded = _loaded_by("import deckindex.classes, deckindex.ufh")
    assert not {f"deckindex.{m}" for m in cover} & set(loaded)
