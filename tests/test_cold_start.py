"""Start-up loads only what a command runs: sympy and mpmath arrive with the
first analytic expression, never with the CLI and pipeline modules.

Each check runs in a fresh interpreter, since an earlier test in this
process may already have imported sympy.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import contextlib, io, json, sys
import deckindex.cli, deckindex.fixpoint, deckindex.vectorfield

def loaded():
    return sorted(m for m in ("sympy", "mpmath") if m in sys.modules)

seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = deckindex.cli.main(argv)
    seen[" ".join(argv)] = [code, loaded()]
print(json.dumps(seen))
"""


def _probe(*commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_exact_commands_never_load_sympy():
    seen = _probe(["validate", "fixture:genus2"],
                  ["map-analyze", "fixture:octahedron-antipodal"],
                  ["map-analyze", "fixture:connected-sum-index"])
    assert seen == {"import": [],
                    "validate fixture:genus2": [0, []],
                    "map-analyze fixture:octahedron-antipodal": [0, []],
                    "map-analyze fixture:connected-sum-index": [0, []]}


def test_analytic_model_loads_sympy():
    seen = _probe(["map-analyze", "fixture:sin-map"])
    assert seen == {"import": [],
                    "map-analyze fixture:sin-map": [0, ["mpmath", "sympy"]]}
