"""Golden reports: report.json bytes of the analysis and group pipelines
are pinned.

The digests below are the sha256 of ``report.json`` as written by
``deckindex <command> fixture:<name> [flags] --out <dir>``, keyed by
(command, fixture, *flags), and by ``deckindex decide-class <doc> --out
<dir>`` for the class documents of ``DECISIONS``, and by document path
for the analytic documents of ``ANALYTIC_DOCUMENTS``.  A change that moves any
of them changes what users see and must say why.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from deckindex.cli import main
from deckindex.reports import canonical_json

GOLDEN = {
    ("map-analyze", "sin-map"):
        "cf6c23d5702ec4946bc435dd4d39df92ad2ac3e26ff9af6f8bd13e32ff75c09a",
    # the host table on a subdivided torus (52 zeros) and the isolation
    # radii from each zero's depth in its host cell
    ("map-analyze", "sin-map", "--subdivide", "1"):
        "b52b1c770a5e23b49728e8536ad46cfca4b1bce15fabad2e25171c6c8617fc71",
    ("map-analyze", "sin-map-scaled"):
        "d67af21648e82acc92c059aa5a4159cf687fd9daa342d53ba3eb20e1767fe130",
    ("field-analyze", "sin-field"):
        "66cc5b0657ebaa491d1dbf6657f93bddee8c0d40579cdad69b465450ccc406b8",
    # zeros listed by exact position: (29/12, 1/12) before (29/12, 5/12), an
    # order that no longer rests on the last bits of the Newton iterates
    ("field-analyze", "sin-field-override"):
        "c8562fb7d24a93ffc655bd1dc9e19e9e1053ce71e54bab3fca708b25df92f178",
    # the finite deck's bounding chain: word-length interior_radius and
    # region_radius, and no finite-group note
    ("map-analyze", "octahedron-antipodal"):
        "ee817935c3ad74e229ef3a3354cf3e53bf478951c8c17cc43c8d640fa3d3111c",
    # the finite deck's mean certificate: four averages and their
    # verifier_result checks, and no finite-group note
    ("map-analyze", "octahedron-rotation"):
        "91ed45cf777479d674e9c79633a7babd54f0ed9dde2b6061b65a47f76f18cdfc",
    ("map-analyze", "octahedron-reflection"):
        "d599ac8aeaf31c79245bed565680a8fa4fbc4dd59020182c323022a15ce86e61",
    ("map-analyze", "octahedron-identity"):
        "d599ac8aeaf31c79245bed565680a8fa4fbc4dd59020182c323022a15ce86e61",
    # interior_radius, region_radius and note, as without --subdivide
    ("map-analyze", "octahedron-antipodal", "--subdivide", "1"):
        "27f0f949d9c91cbc0d035a52c4affc1100634f8b157d431bf69e0491c298912d",
    # the difference certificate's interior_radius, region_radius and note
    ("field-analyze", "octahedron-polar-field"):
        "7eb5a5cb5609e2088549402afeb3a930cb24dde340cc21d9b5cd22f3c5b51371",
    ("amenability", "genus2", "--radius", "5"):
        "3e7a6a0621b0f3273abdd91329d86080ec40befbf4727ee483b90e0c0373f9a5",
    ("amenability", "torus", "--radius", "6"):
        "a527f4e2b75ab7a750a5fbc49f1c8edd7c7b70906546129c7f54014198e76ade",
    # a zero-by-truncated-flow certificate over F2 at capacity 3: its flow
    # chains are one valid max-flow among many, so a different solver moves
    # this digest, in certificate.payload.flows[*].chain only (push-relabel
    # moved flows[0], the radius-3 chain)
    ("map-analyze", "free-cover-index"):
        "9a0961ab71e0234755e809720ce2425aafc7886647d4896f499dc7dcc83ea4e1",
    ("map-analyze", "connected-sum-index"):
        "576367e1a5009123b14c9ea2d6e9b5bfa4fdc54b19c3fded79a22b3510291499",
}

# decide-class documents, one per decision branch that reads group balls:
# truncated flows plus the verifier's ball(R - 1) on the genus-2 group, a
# bounding chain checked on an interior ball of Z^2, and the Folner means of
# a cyclic group; every report also charts the class over ball(3)
DECISIONS = {
    "genus2-unit-masses": (
        {"group": {"kind": "surface", "genus": 2}, "constant": 1,
         "finite": [["a1", 1], ["-b2", -1], ["a2 b1", 1], ["b1 -a1", -1]]},
        "c7a4136c6e15d4339f79728bdcdeb6f0a422a50ee926738bb928da1e88108693"),
    "z2-finite-mass": (
        {"group": {"kind": "free-abelian", "rank": 2}, "constant": 0,
         "finite": [["a a", 3], ["-b", -1], ["a b", 2], ["-a -a -b", -1]]},
        "bbf5df92f84968edef1fd1a39097e820d5950308165b0105b603293b42385732"),
    "cyclic-class": (
        {"group": {"kind": "finite", "cyclic": 7}, "constant": 0,
         "finite": [["t", 2], ["t t t", -1], ["", 3]]},
        # averages at t = 1, 2, 4, 8 with their verifier_result checks, no note
        "3a8adf84b6b52bf8e6e45486a90065983c22cbb7cbcfd1baf192db49089b4b3c"),
}

# Benchmark-shaped analytic documents: the sin map at the largest amplitude
# of the analytic-torus workload, and the overridden sin field with its
# override two generator steps from the base window, as that workload runs
# it (at "a a" it is the sin-field-override fixture).  Each report is
# pinned under two PYTHONHASHSEED values.
_OVERRIDE = ["sin(2*pi*x)*(1 - 2*sin(2*pi*y))", "sin(2*pi*y)*(1 - 2*sin(2*pi*x))"]


def _overridden_sin_field(window):
    return {"variant": "analytic", "fixture": "torus",
            "components": ["sin(2*pi*x)", "sin(2*pi*y)"], "bound": "6",
            "overrides": [{"translate": window, "components": _OVERRIDE}]}


ANALYTIC_DOCUMENTS = {
    "sin-map-7/25": (
        "map-analyze",
        {"variant": "analytic", "fixture": "torus",
         "components": ["(7/25)*sin(2*pi*x)", "(7/25)*sin(2*pi*y)"], "bound": "2/5"},
        "78c92b114b17456baa8ca3b5f9c316bdfc79fcb2e8786b6d371026e539a41152"),
    "sin-field-override-a-a": (
        "field-analyze", _overridden_sin_field("a a"),
        "c8562fb7d24a93ffc655bd1dc9e19e9e1053ce71e54bab3fca708b25df92f178"),
    "sin-field-override--b--b": (
        "field-analyze", _overridden_sin_field("-b -b"),
        "ca18e4f580767912917114adf1ab78ec8a664a368c57614d5ebe2eff736c8340"),
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


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_decision_report_bytes_unchanged(name, tmp_path):
    document, digest = DECISIONS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(document), encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["decide-class", str(path), "--out", out]) == 0
    assert _digest(out) == digest


def _digests_under_hash_seeds(tmp_path, command, source):
    """Report digests of ``deckindex command source`` run in a fresh
    interpreter under two PYTHONHASHSEED values."""
    digests = []
    for seed in ("1", "2"):
        out = str(tmp_path / f"out{seed}")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "deckindex.cli", command,
                        source, "--out", out],
                       env=env, check=True, capture_output=True)
        digests.append(_digest(out))
    return digests


def test_report_bytes_independent_of_hash_seed(tmp_path):
    command, fixture = "field-analyze", "sin-field-override"
    assert _digests_under_hash_seeds(tmp_path, command, f"fixture:{fixture}") \
        == [GOLDEN[command, fixture]] * 2


def test_flow_certificate_bytes_independent_of_hash_seed(tmp_path):
    command, fixture = "map-analyze", "free-cover-index"
    assert _digests_under_hash_seeds(tmp_path, command, f"fixture:{fixture}") \
        == [GOLDEN[command, fixture]] * 2


@pytest.mark.parametrize("name", sorted(ANALYTIC_DOCUMENTS))
def test_analytic_document_bytes_independent_of_hash_seed(name, tmp_path):
    command, document, digest = ANALYTIC_DOCUMENTS[name]
    path = tmp_path / "document.json"
    path.write_text(canonical_json(document), encoding="utf-8")
    assert _digests_under_hash_seeds(tmp_path, command, str(path)) == [digest] * 2
