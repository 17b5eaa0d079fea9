"""Golden reports: the map and field pipelines' report.json bytes are pinned.

The digests below are the sha256 of ``report.json`` as written by
``deckindex <command> fixture:<name> [flags] --out <dir>``, keyed by
(command, fixture, *flags).  A change that moves any of them changes what
users see and must say why.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from deckindex.cli import main

GOLDEN = {
    ("map-analyze", "sin-map"):
        "cf6c23d5702ec4946bc435dd4d39df92ad2ac3e26ff9af6f8bd13e32ff75c09a",
    ("map-analyze", "sin-map-scaled"):
        "d67af21648e82acc92c059aa5a4159cf687fd9daa342d53ba3eb20e1767fe130",
    ("field-analyze", "sin-field"):
        "66cc5b0657ebaa491d1dbf6657f93bddee8c0d40579cdad69b465450ccc406b8",
    ("field-analyze", "sin-field-override"):
        "4dcb8e46a313422bb219907230fe05d6d13ecc5dcb2aa37b21b19bc95b216066",
    ("map-analyze", "octahedron-antipodal"):
        "fe5b8ab8c4b091318eca4e617c4bb203360f7d849cd082fde83200d75f61ffa0",
    ("map-analyze", "octahedron-rotation"):
        "b2d0d492e50d0b71a0e6ce01969e2340b548ac5b2bc69088c26ac1cdb34d1e28",
    ("map-analyze", "octahedron-reflection"):
        "d599ac8aeaf31c79245bed565680a8fa4fbc4dd59020182c323022a15ce86e61",
    ("map-analyze", "octahedron-identity"):
        "d599ac8aeaf31c79245bed565680a8fa4fbc4dd59020182c323022a15ce86e61",
    ("map-analyze", "octahedron-antipodal", "--subdivide", "1"):
        "d0b1be8c33effb1a3d474e3f9b3e23ecd1baf7901592a90fba3768f33a2f4a16",
    ("field-analyze", "octahedron-polar-field"):
        "df4ae4a4ea144d2582fa7355f11fb3aba82a960111e059fc8c0cb3e4a4fcfbdb",
}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _digest(out_dir):
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_report_bytes_unchanged(key, tmp_path):
    command, fixture, *flags = key
    out = str(tmp_path / "out")
    assert main([command, f"fixture:{fixture}", *flags, "--out", out]) == 0
    assert _digest(out) == GOLDEN[key]


def test_report_bytes_independent_of_hash_seed(tmp_path):
    command, fixture = "field-analyze", "sin-field-override"
    digests = []
    for seed in ("1", "2"):
        out = str(tmp_path / f"out{seed}")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "deckindex.cli", command,
                        f"fixture:{fixture}", "--out", out],
                       env=env, check=True, capture_output=True)
        digests.append(_digest(out))
    assert digests == [GOLDEN[command, fixture]] * 2
