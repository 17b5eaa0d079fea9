"""Golden reports: the analytic pipelines' report.json bytes are pinned.

The digests below are the sha256 of ``report.json`` as written by
``deckindex <command> fixture:<name> --out <dir>``.  A change that moves
any of them changes what users see and must say why.
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
}

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _digest(out_dir):
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("command,fixture", sorted(GOLDEN))
def test_report_bytes_unchanged(command, fixture, tmp_path):
    out = str(tmp_path / "out")
    assert main([command, f"fixture:{fixture}", "--out", out]) == 0
    assert _digest(out) == GOLDEN[command, fixture]


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
