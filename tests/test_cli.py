import argparse
import ast
import glob
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from deckindex import cli, complexes, fixpoint, groups
from deckindex.cli import main
from deckindex.fixpoint import SimplicialMapModel
from deckindex.fixtures import fixture_complex, fixture_document, torus_grid
from deckindex.groups import group_from_document
from deckindex.reports import canonical_json


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_json(doc), encoding="utf-8")
    return str(path)


def _read_report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestValidateCommand:
    def test_valid_torus_exits_zero(self, tmp_path):
        path = _write(tmp_path, "torus.json",
                      fixture_complex("torus").to_document())
        out = str(tmp_path / "out")
        assert main(["validate", path, "--out", out]) == 0
        report = _read_report(out)
        assert report["report"]["valid"]

    def test_orientation_broken_exits_one(self, tmp_path):
        doc = fixture_complex("tetrahedron").to_document()
        key = sorted(doc["orientation"])[0]
        doc["orientation"][key] = -doc["orientation"][key]
        path = _write(tmp_path, "broken.json", doc)
        out = str(tmp_path / "out")
        assert main(["validate", path, "--out", out]) == 1
        report = _read_report(out)
        kinds = {v["kind"] for v in report["report"]["violations"]}
        assert "orientation coherence" in kinds

    def test_missing_face_names_the_condition(self, tmp_path):
        doc = fixture_complex("tetrahedron").to_document()
        doc["simplices"]["1"] = doc["simplices"]["1"][1:]
        path = _write(tmp_path, "missing.json", doc)
        out = str(tmp_path / "out")
        assert main(["validate", path, "--out", out]) == 1
        kinds = {v["kind"] for v in _read_report(out)["report"]["violations"]}
        assert "simplicial-complex condition" in kinds

    @pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "torus",
                                      "csaszar", "klein", "genus2"])
    def test_fixture_is_validated_without_its_document(self, name, tmp_path,
                                                      capsys, monkeypatch):
        # a shipped complex is validated as built, and reports what its
        # document, read from a file, reports
        path = _write(tmp_path, "c.json", fixture_complex(name).to_document())
        code = main(["validate", path, "--subdivide", "1"])
        report = capsys.readouterr().out
        for method in ("to_document", "from_document"):
            monkeypatch.setattr(complexes.QuotientComplex, method, None)
        assert main(["validate", f"fixture:{name}", "--subdivide", "1"]) == code
        assert capsys.readouterr().out == report

    def test_klein_fixture_rejected(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["validate", "fixture:klein", "--out", out]) == 1


class TestMapAnalyze:
    def test_sin_model_report(self, tmp_path):
        path = _write(tmp_path, "map.json", fixture_document("sin-map"))
        out = str(tmp_path / "out")
        assert main(["map-analyze", path, "--out", out, "--radius", "0",
                     "--plots"]) == 0
        report = _read_report(out)["report"]
        assert report["fixed_points_per_domain"] == 4
        assert report["class_function"] == {"constant": 0, "finite": []}
        assert report["certificate"]["verdict"] == "zero-by-boundary"
        assert report["certificate"]["verifier_result"]["verified"]
        assert report["oracle"]["equal"]
        assert os.path.exists(os.path.join(out, "class_function.svg"))

    def test_connected_sum_index_data(self, tmp_path):
        path = _write(tmp_path, "idx.json", fixture_document("connected-sum-index"))
        out = str(tmp_path / "out")
        assert main(["map-analyze", path, "--out", out]) == 0
        report = _read_report(out)["report"]
        assert report["mode"] == "index-data"
        assert report["certificate"]["verdict"] == "nonzero-by-mean"
        assert report["certificate"]["payload"]["limit"] == "2"
        assert "infinitely many fixed points" in report["narrative"]

    def test_free_cover_index_data_flow(self, tmp_path):
        path = _write(tmp_path, "idx.json", fixture_document("free-cover-index"))
        out = str(tmp_path / "out")
        assert main(["map-analyze", path, "--out", out]) == 0
        report = _read_report(out)["report"]
        assert report["certificate"]["verdict"] == "zero-by-truncated-flow"
        assert "nonamenable" in report["narrative"]

    def test_not_tame_map_reports_and_stops(self, tmp_path):
        path = _write(tmp_path, "id.json", fixture_document("octahedron-identity"))
        out = str(tmp_path / "out")
        assert main(["map-analyze", path, "--out", out]) == 0
        report = _read_report(out)["report"]
        assert report["tameness"]["verdict"] == "not tame"
        assert "note" in report


class TestFieldAnalyze:
    def test_sin_field_report(self, tmp_path):
        path = _write(tmp_path, "field.json", fixture_document("sin-field"))
        out = str(tmp_path / "out")
        assert main(["field-analyze", path, "--out", out, "--radius", "0"]) == 0
        report = _read_report(out)["report"]
        assert report["euler_characteristic"] == 0
        assert report["consistent"]

    def test_polar_field_report(self, tmp_path):
        path = _write(tmp_path, "field.json",
                      fixture_document("octahedron-polar-field"))
        out = str(tmp_path / "out")
        assert main(["field-analyze", path, "--out", out]) == 0
        report = _read_report(out)["report"]
        assert report["euler_characteristic"] == 2
        assert report["consistent"]


class TestAmenability:
    def test_z2_decreasing_table(self, tmp_path):
        path = _write(tmp_path, "g.json", {"kind": "free-abelian", "rank": 2})
        out = str(tmp_path / "out")
        assert main(["amenability", path, "--out", out, "--radius", "6",
                     "--plots"]) == 0
        report = _read_report(out)["report"]
        from fractions import Fraction
        ratios = [Fraction(r["ratio"]) for r in report["folner"]]
        assert all(a > b for a, b in zip(ratios[1:], ratios[2:]))
        assert os.path.exists(os.path.join(out, "folner.svg"))

    def test_f2_flow_table(self, tmp_path):
        path = _write(tmp_path, "g.json", {"kind": "free", "rank": 2})
        out = str(tmp_path / "out")
        assert main(["amenability", path, "--out", out, "--radius", "6"]) == 0
        report = _read_report(out)["report"]
        assert all(row["feasible"] for row in report["uniform_capacity_flows"])
        assert "finite evidence" in report["note"]

    def test_finite_group_zero_row(self, tmp_path):
        path = _write(tmp_path, "g.json", {"kind": "finite", "cyclic": 6})
        out = str(tmp_path / "out")
        assert main(["amenability", path, "--out", out, "--radius", "4"]) == 0
        report = _read_report(out)["report"]
        assert report["folner"][0]["ratio"] == "0"


    def test_complex_fixture_reads_its_group(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["amenability", "fixture:torus", "--radius", "3",
                     "--out", out]) == 0
        report = _read_report(out)["report"]
        assert report["kind"] == "free-abelian"
        assert report["group"]["kind"] == "free-abelian"

    @pytest.mark.parametrize("fixture", ["sin-map", "sin-field-override"])
    def test_fixture_named_complex_reads_its_group(self, fixture, tmp_path):
        out = str(tmp_path / "out")
        assert main(["amenability", f"fixture:{fixture}", "--radius", "3",
                     "--out", out]) == 0
        torus = str(tmp_path / "torus")
        assert main(["amenability", "fixture:torus", "--radius", "3",
                     "--out", torus]) == 0
        assert _read_report(out)["report"] == _read_report(torus)["report"]

    # the probe counts its spheres; only the flows of a nonamenable kind
    # build a ball, one of their largest radius
    BALLS = {"surface2-r5": ({"kind": "surface", "genus": 2}, 5, [3]),
             "surface2-r8": ({"kind": "surface", "genus": 2}, 8, [3]),
             "free2-r6": ({"kind": "free", "rank": 2}, 6, [6]),
             "free2-r1": ({"kind": "free", "rank": 2}, 1, [6]),
             "abelian3-r5": ({"kind": "free-abelian", "rank": 3}, 5, []),
             "cyclic7-r5": ({"kind": "finite", "cyclic": 7}, 5, [])}

    @pytest.mark.parametrize("block,radius,built", BALLS.values(), ids=BALLS.keys())
    def test_only_the_flows_build_a_ball(self, block, radius, built, tmp_path,
                                         monkeypatch, capsys):
        radii, init = [], groups.IndexedBall.__init__
        monkeypatch.setattr(groups.IndexedBall, "__init__",
                            lambda ball, group, r: radii.append(r) or init(ball, group, r))
        assert main(["amenability", _write(tmp_path, "g.json", block),
                     "--radius", str(radius)]) == 0
        assert radii == built

    def test_genus2_radius_8_runs_without_its_ball(self):
        # ball(7) holds 1,085,907 elements, about 330 MB as an indexed
        # ball; counted, the command stays far below.  Child max RSS is read
        # in a fresh interpreter whose only child is the command
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", RADIUS_8_RUN], env=env,
                             capture_output=True, text=True, check=True)
        exit_code, rss_kib, stdout = json.loads(out.stdout)
        assert exit_code == 0
        assert rss_kib < 40 * 1024  # ru_maxrss is in KiB on Linux
        rows = json.loads(stdout)["report"]["isoperimetric"]
        assert [(r["radius"], r["ball"], r["boundary"]) for r in rows[-2:]] == \
            [(7, 1085907, 6493562), (8, 7579469, 45324080)]


RADIUS_8_RUN = """
import json, resource, subprocess, sys
run = subprocess.run([sys.executable, "-m", "deckindex.cli", "amenability",
                      "fixture:genus2", "--radius", "8"], capture_output=True, text=True)
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([run.returncode, rss, run.stdout]))
"""


class TestDecideClass:
    def test_document_round(self, tmp_path):
        doc = {"group": {"kind": "free-abelian", "rank": 2},
               "constant": 0, "finite": [["a a", 3]]}
        path = _write(tmp_path, "f.json", doc)
        out = str(tmp_path / "out")
        assert main(["decide-class", path, "--out", out]) == 0
        report = _read_report(out)["report"]
        assert report["certificate"]["verdict"] == "zero-by-boundary"

    def test_inconclusive_note_names_the_capacity_budget(self, tmp_path):
        # F2 with constant 3 needs capacity 2 at the default radii
        doc = {"group": {"kind": "free", "rank": 2}, "constant": 3, "finite": []}
        path = _write(tmp_path, "f.json", doc)
        out = str(tmp_path / "out")
        assert main(["decide-class", path, "--capacity", "1", "--out", out]) == 0
        cert = _read_report(out)["report"]["certificate"]
        assert cert["verdict"] == "inconclusive"
        assert cert["payload"]["note"] == "no uniform capacity up to 1 (--capacity)"

    def test_free_group_of_rank_1_is_refused_for_z(self, tmp_path, capsys):
        # F_1 is Z: decided as a free group it read as nonamenable, and its
        # constant 1 as zero; the refusal names the block that reads the
        # same words, whose class is nonzero
        doc = {"group": {"kind": "free", "rank": 1, "generators": ["a"]},
               "constant": 1, "finite": []}
        assert main(["decide-class", _write(tmp_path, "f1.json", doc)]) == 1
        assert capsys.readouterr().err == (
            "error: free rank must be >= 2; the free group of rank 1 is "
            '{"kind": "free-abelian", "rank": 1}\n')
        doc["group"]["kind"] = "free-abelian"
        assert main(["decide-class", _write(tmp_path, "z.json", doc)]) == 0
        cert = json.loads(capsys.readouterr().out)["report"]["certificate"]
        assert (cert["verdict"], cert["payload"]["limit"]) == ("nonzero-by-mean", "1")
        assert cert["verifier_result"]["verified"]


class TestSelftestDeterminism:
    def test_all_pass_and_byte_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            out = str(tmp_path / f"out{run}")
            assert main(["selftest", "--seed", "7", "--out", out]) == 0
            with open(os.path.join(out, "report.json"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
        report = json.loads(blobs[0])
        assert report["report"]["all_passed"]

    def test_seed_variation_keeps_verdicts(self, tmp_path):
        verdicts = set()
        for seed in (1, 2, 3):
            out = str(tmp_path / f"s{seed}")
            assert main(["selftest", "--seed", str(seed), "--out", out]) == 0
            report = _read_report(out)
            verdicts.add(report["report"]["all_passed"])
        assert verdicts == {True}


def _torus_with_a_string_sign():
    # a +1 sign written as "1", which int() would read back unchanged
    doc = fixture_complex("torus").to_document()
    key = next(k for k, sign in sorted(doc["orientation"].items()) if sign == 1)
    doc["orientation"][key] = "1"
    return doc


class TestExitCodes:
    def test_unknown_fixture_is_input_error(self, tmp_path):
        assert main(["validate", "fixture:moebius"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["validate"], "the following arguments are required: inputs"),
        (["validate", "fixture:torus", "--radius", "x"], "invalid int value: 'x'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["validate", "fixture:torus", "--frobnicate"], "unrecognized arguments"),
    ])
    def test_malformed_command_line_is_input_error(self, argv, message, capsys):
        # exit 2 is reserved for a resource budget, so argparse's own exit
        # code is not passed through
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: deckindex" in capsys.readouterr().out

    def test_budget_exceeded_is_resource_error(self, tmp_path):
        path = _write(tmp_path, "g.json", {"kind": "free", "rank": 2})
        # radius 40 exceeds the free-group ball budget
        assert main(["amenability", path, "--radius", "40",
                     "--out", str(tmp_path / "out")]) == 2

    def test_ball_budget_error_names_the_document_field(self, tmp_path, capsys):
        path = _write(tmp_path, "g.json", {"kind": "free", "rank": 2})
        # the free-group ball budget is 8; --radius 9 overflows it, so the
        # message must point at the budget, not at --radius
        assert main(["amenability", path, "--radius", "9",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "ball_budget" in err and "--radius" not in err

    def test_ball_budget_bounds_a_finite_group(self, tmp_path, capsys):
        path = _write(tmp_path, "g.json", {"kind": "finite", "cyclic": 5,
                                           "ball_budget": 1})
        assert main(["amenability", path, "--radius", "3",
                     "--out", str(tmp_path / "out")]) == 2
        assert "ball_budget" in capsys.readouterr().err

    def test_probe_past_the_ball_budget_is_refused(self, tmp_path, capsys):
        # the probe of radius R builds no ball, but R past the budget is
        # still refused and named
        path = _write(tmp_path, "g.json", {"kind": "surface", "genus": 2,
                                           "ball_budget": 4})
        assert main(["amenability", path, "--radius", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: radius 5 exceeds the ball budget 4 for kind 'surface'; "
            "raise 'ball_budget' in the group document\n")
        assert main(["amenability", path, "--radius", "4"]) == 0
        rows = json.loads(capsys.readouterr().out)["report"]["isoperimetric"]
        assert [(r["ball"], r["boundary"]) for r in rows] == \
            [(9, 56), (65, 392), (457, 2736), (3193, 19096)]

    def test_flow_past_the_ball_budget_is_named_in_order(self, tmp_path, capsys):
        # the flows share one ball, asked for first only when every flow
        # radius is within the budget; the first flow radius past it (3, 4,
        # 5, 6 in turn) is the one refused
        path = _write(tmp_path, "g.json", {"kind": "free", "rank": 2, "ball_budget": 4})
        assert main(["amenability", path, "--radius", "3"]) == 2
        assert "error: radius 5 exceeds the ball budget 4" in capsys.readouterr().err

    def test_document_ball_budget_raises_the_limit(self, tmp_path):
        path = _write(tmp_path, "g.json", {"kind": "free", "rank": 2,
                                           "ball_budget": 9})
        out = str(tmp_path / "out")
        assert main(["amenability", path, "--radius", "9", "--out", out]) == 0
        assert _read_report(out)["report"]["isoperimetric"][-1]["ball"] \
            == 2 * 3**9 - 1


    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["map-analyze", str(path)]) == 1

    def test_undecodable_bytes_are_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"kind": "free"}')
        assert main(["amenability", str(path)]) == 1

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1

    def test_non_object_document_is_input_error(self, tmp_path):
        path = _write(tmp_path, "list.json", [1, 2])
        assert main(["decide-class", path]) == 1

    def test_non_integer_constant_is_input_error(self, tmp_path):
        path = _write(tmp_path, "c.json",
                      {"group": {"kind": "free-abelian", "rank": 1},
                       "constant": "x", "finite": []})
        assert main(["decide-class", path]) == 1

    def test_class_without_group_is_input_error(self, tmp_path):
        path = _write(tmp_path, "c.json", {"constant": 1, "finite": []})
        assert main(["decide-class", path]) == 1

    @pytest.mark.parametrize("block", [
        {"kind": "free", "rank": "x"},
        {"kind": "free", "rank": 2, "ball_budget": "big"},
        {"kind": "surface", "genus": None},
        {"kind": "free"},
        {"kind": "finite", "table": "x"},
        {"kind": "finite", "cyclic": 0},
        {"kind": "free", "rank": 2.7},
        {"kind": "free", "rank": 2, "ball_budget": -1},
        {"kind": "free", "rank": 2, "generators": ["a", 3]},
        {"kind": "free-abelian", "rank": 2, "generators": ["a", "a"]},
        {"complex": [1]},
    ], ids=["rank-string", "budget-string", "genus-null", "rank-missing",
            "table-string", "cyclic-zero", "rank-fractional", "budget-negative",
            "generator-number", "generator-repeated", "complex-list"])
    def test_malformed_group_block_is_input_error(self, block, tmp_path, capsys):
        path = _write(tmp_path, "g.json", block)
        assert main(["amenability", path, "--radius", "1"]) == 1
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("block,name", [
        ({"kind": "free-abelian", "rank": 2, "generators": ["a", "-a"]}, "-a"),
        ({"kind": "free-abelian", "rank": 2, "generators": ["a", "a b"]}, "a b"),
        ({"kind": "free", "rank": 2, "generators": ["x", "-y"]}, "-y"),
        ({"kind": "free", "rank": 1, "generators": ["x\ty"]}, "x\ty"),
        ({"kind": "surface", "genus": 1, "generators": ["a", "b c"]}, "b c"),
        ({"kind": "surface", "genus": 1, "generators": ["-", "b"]}, "-"),
        ({"kind": "finite", "table": [[0, 1], [1, 0]], "generator_ids": [1],
          "generators": ["-t"]}, "-t"),
        ({"kind": "finite", "table": [[0, 1], [1, 0]], "generator_ids": [1],
          "generators": [" t"]}, " t"),
    ], ids=["free-abelian-minus", "free-abelian-space", "free-minus", "free-tab",
            "surface-space", "surface-bare-minus", "finite-minus", "finite-space"])
    def test_unreadable_generator_name_is_refused(self, block, name, tmp_path, capsys):
        # "-x" reads as the inverse of x and a word splits at whitespace, so
        # such a name would write words that do not read back
        path = _write(tmp_path, "c.json", {"group": block, "constant": 1, "finite": []})
        assert main(["decide-class", path]) == 1
        assert f"generator name {name!r} cannot be read back" in capsys.readouterr().err

    def test_readable_generator_names_are_kept(self):
        g = group_from_document({"kind": "free-abelian", "rank": 2, "generators": ["a", "a-"]})
        assert g.format_element((0, -1)) == "-a-"
        assert g.parse_word(g.format_element((3, -2))) == (3, -2)

    @pytest.mark.parametrize("constant,value", [(1.5, 2), (1, 2.7), (1.5, 2.7)])
    def test_fractional_number_is_input_error(self, constant, value, tmp_path):
        path = _write(tmp_path, "c.json",
                      {"group": {"kind": "free-abelian", "rank": 1},
                       "constant": constant, "finite": [["a", value]]})
        assert main(["decide-class", path]) == 1

    # int() would read "1" as 1, "1_0" as 10 and true as 1: an integer
    # field given as a JSON string or boolean is refused, named as the
    # document's reader names its other malformed values
    STRING_OR_BOOLEAN = {
        "constant-string": (
            "decide-class", lambda: {"group": {"kind": "free-abelian", "rank": 1},
                                     "constant": "1", "finite": []},
            "malformed class function document: '1' is not an integer"),
        "finite-underscore": (
            "decide-class", lambda: {"group": {"kind": "free-abelian", "rank": 1},
                                     "finite": [["a", "1_0"]]},
            "malformed class function document: '1_0' is not an integer"),
        "ball-budget-string": (
            "amenability", lambda: {"kind": "free", "rank": 2, "ball_budget": "8"},
            "malformed group block: '8' is not an integer"),
        "rank-boolean": (
            "amenability", lambda: {"kind": "free", "rank": True},
            "malformed group block: True is not an integer"),
        "grid-boolean": (
            "map-analyze", lambda: dict(fixture_document("sin-map"), grid=True),
            "cannot read 'grid' (ValueError: True is not an integer)"),
        "sign-string": (
            "validate", _torus_with_a_string_sign,
            "must be +1 or -1: '1' is not an integer"),
    }

    @pytest.mark.parametrize("case", list(STRING_OR_BOOLEAN))
    def test_string_or_boolean_integer_is_refused(self, case, tmp_path, capsys):
        command, make, message = self.STRING_OR_BOOLEAN[case]
        path = _write(tmp_path, "doc.json", make())
        assert main([command, path, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decide-class", "map-analyze"])
    def test_non_string_word_is_input_error(self, command, tmp_path, capsys):
        path = _write(tmp_path, "c.json", {"group": {"kind": "free", "rank": 2},
                                           "finite": [[1, 2]]})
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert "entry [1, 2]" in err and "internal error" not in err

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["decide-class", "fixture:free-cover-index"]) == 0
        assert main(["decide-class", "fixture:connected-sum-index"]) == 0
        assert built.count("deckindex") == 1

    def test_degenerate_zero_names_no_missing_knob(self, tmp_path, capsys):
        # zeros of index +-2 where the Jacobian vanishes: refused, without
        # pointing at an "isolation radius" that nothing sets
        path = _write(tmp_path, "f.json", {
            "variant": "analytic", "fixture": "torus", "bound": "2",
            "components": ["sin(2*pi*x)**2 - sin(2*pi*y)**2",
                           "2*sin(2*pi*x)*sin(2*pi*y)"]})
        assert main(["field-analyze", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: degenerate analytic zero")
        assert "isolation radius" not in err

    @pytest.mark.parametrize("command", ["map-analyze", "field-analyze"])
    def test_zero_on_a_face_is_refused(self, command, tmp_path, capsys):
        # with no offset the grid's vertices and edges carry the sin zeros
        doc = {k: v for k, v in fixture_document("sin-map").items() if k != "fixture"}
        doc["complex"] = torus_grid(offset=(0, 0)).to_document()
        assert main([command, _write(tmp_path, "m.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the zero at (0, 0) lies on a simplex face")

    def test_uncertified_zero_is_the_witness_of_not_tame(self, tmp_path):
        # sin(2 pi x) = -5/7 has no rational solution, so no zero is exact
        doc = {**fixture_document("sin-map"),
               "components": ["sin(2*pi*x)/5 + 1/7", "sin(2*pi*y)/5"]}
        out = str(tmp_path / "out")
        assert main(["map-analyze", _write(tmp_path, "m.json", doc), "--out", out]) == 0
        tameness = _read_report(out)["report"]["tameness"]
        assert tameness["verdict"] == "not tame"
        [witness] = tameness["witnesses"]
        assert witness.startswith("the fixed point near (0.6266")
        assert "not certified" in witness

    def test_newton_grid_past_the_budget_names_the_field(self, tmp_path, capsys):
        doc = {**fixture_document("sin-map"), "grid": 10**6}
        assert main(["map-analyze", _write(tmp_path, "m.json", doc)]) == 2
        err = capsys.readouterr().err
        assert "'grid' 1000000" in err and "--grid" not in err

    @pytest.mark.parametrize("command,fixture", [
        ("map-analyze", "sin-map"), ("map-analyze", "octahedron-rotation"),
        ("field-analyze", "octahedron-polar-field")])
    def test_tameness_grid_past_the_budget_names_the_flag(self, command, fixture,
                                                          capsys):
        assert main([command, f"fixture:{fixture}", "--grid", str(10**6)]) == 2
        assert "--grid 1000000" in capsys.readouterr().err

    def test_integral_float_is_accepted(self, tmp_path):
        path = _write(tmp_path, "c.json",
                      {"group": {"kind": "free-abelian", "rank": 1},
                       "constant": 2.0, "finite": [["a", 3.0]]})
        out = str(tmp_path / "out")
        assert main(["decide-class", path, "--out", out]) == 0
        assert _read_report(out)["report"]["class_function"] == \
            {"constant": 2, "finite": [["a", 3]]}


class TestSubdivideFlag:
    def test_sin_map_class_stable_via_flag(self, tmp_path):
        path = _write(tmp_path, "map.json", fixture_document("sin-map"))
        out0, out1 = str(tmp_path / "o0"), str(tmp_path / "o1")
        assert main(["map-analyze", path, "--out", out0, "--radius", "0"]) == 0
        assert main(["map-analyze", path, "--out", out1, "--radius", "0",
                     "--subdivide", "1"]) == 0
        r0 = _read_report(out0)["report"]
        r1 = _read_report(out1)["report"]
        assert r0["class_function"] == r1["class_function"]
        assert r1["subdivision_refinement"] == 1

    def test_validate_subdivided_torus(self, tmp_path):
        path = _write(tmp_path, "torus.json",
                      fixture_complex("torus").to_document())
        out = str(tmp_path / "out")
        assert main(["validate", path, "--out", out, "--subdivide", "1"]) == 0
        report = _read_report(out)["report"]
        assert report["cells"] == [9 + 27 + 18, 2 * 27 + 6 * 18, 6 * 18]

    @pytest.mark.parametrize("command, ref", [
        ("validate", "fixture:genus2"),
        ("map-analyze", "fixture:octahedron-antipodal"),
        ("map-analyze", "fixture:sin-map"),
        ("field-analyze", "fixture:sin-field"),
    ])
    @pytest.mark.parametrize("value, code", [("-1", 1), ("-3", 1), ("4", 2)])
    def test_out_of_range_is_refused(self, command, ref, value, code, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main([command, ref, f"--subdivide={value}", "--out", out]) == code
        assert "--subdivide" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unread_chain_maps_are_never_composed(self, tmp_path, monkeypatch):
        # validate and the analytic refinement read only the subdivided
        # complex, so the per-level chain maps must never be composed
        def refuse(first, second):
            raise AssertionError("chain maps composed")

        monkeypatch.setattr(complexes, "_compose_chain_maps", refuse)
        out = str(tmp_path / "validate")
        assert main(["validate", "fixture:genus2", "--subdivide", "3", "--out", out]) == 0
        assert _read_report(out)["report"]["valid"]
        out = str(tmp_path / "map")
        assert main(["map-analyze", "fixture:sin-map", "--radius", "0",
                     "--subdivide", "1", "--out", out]) == 0
        with pytest.raises(AssertionError, match="composed"):
            complexes.barycentric_subdivide(fixture_complex("octahedron"), 2).chain_map

    def test_chain_maps_are_built_on_first_read(self, tmp_path, monkeypatch):
        # a level keeps its flag signs; only the Hopf trace of a map given on
        # a subdivision reads chain_map, which builds each level's table once
        built = []
        tables = complexes._chain_map_tables
        monkeypatch.setattr(complexes, "_chain_map_tables",
                            lambda level: built.append(level) or tables(level))
        out = str(tmp_path / "validate")
        assert main(["validate", "fixture:genus2", "--subdivide", "3", "--out", out]) == 0
        # --subdivide pushes an automorphism down level by level instead
        out = str(tmp_path / "pushed")
        assert main(["map-analyze", "fixture:octahedron-antipodal", "--subdivide", "1",
                     "--out", out]) == 0
        assert built == []
        # every barycenter goes to the antipode of its cell's first vertex
        octa = fixture_complex("octahedron")
        sub = complexes.barycentric_subdivide(octa, 1)
        antipode = fixture_document("octahedron-antipodal")["vertex_images"]
        images = {str(sub.cell_vertex[k][idx]): antipode[octa.vertices[s[0]]]
                  for k in range(3) for idx, s in enumerate(octa.simplices[k])}
        path = _write(tmp_path, "map.json", {"variant": "simplicial", "fixture": "octahedron",
                                             "subdivision": 1, "vertex_images": images})
        out = str(tmp_path / "map")
        assert main(["map-analyze", path, "--out", out]) == 0
        oracle = _read_report(out)["report"]["oracle"]
        assert (oracle["classical_lefschetz_number"], oracle["equal"]) == (0, True)
        assert len(built) == 1

    def test_model_reads_the_composed_chain_map(self):
        # a map model at subdivision 2 reads the composition of its two
        # levels; barycenters go to the first vertex of their cell, twice
        octa = fixture_complex("octahedron")
        first = complexes.barycentric_subdivide(octa, 1)
        second = complexes.barycentric_subdivide(first.complex, 1)

        def to_first_vertex(q, sub):
            return {v: q.simplex(k, idx)[0] for k in range(q.dimension + 1)
                    for idx, v in enumerate(sub.cell_vertex[k])}

        down = to_first_vertex(first.complex, second)
        collapse = to_first_vertex(octa, first)
        model = SimplicialMapModel(octa, 2, {v: collapse[w] for v, w in down.items()})
        assert model.chain_maps == complexes._compose_chain_maps(first.chain_map,
                                                                 second.chain_map)

    @pytest.mark.parametrize("argv", [
        ["amenability", "fixture:genus2", "--radius", "2"],
        ["decide-class", "fixture:connected-sum-index"],
        ["selftest", "--seed", "7"],
    ], ids=["amenability", "decide-class", "selftest"])
    @pytest.mark.parametrize("value", ["1", "3", "4", "-1"])
    def test_refused_where_nothing_is_subdivided(self, argv, value, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(argv + [f"--subdivide={value}", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "--subdivide" in err and "validate, map-analyze, field-analyze" in err
        assert argv[0] in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["amenability", "fixture:genus2", "--radius", "2"],
        ["decide-class", "fixture:connected-sum-index"],
    ], ids=["amenability", "decide-class"])
    def test_zero_is_the_default(self, argv, tmp_path):
        outs = [str(tmp_path / "default"), str(tmp_path / "zero")]
        assert main(argv + ["--out", outs[0]]) == 0
        assert main(argv + ["--subdivide=0", "--out", outs[1]]) == 0
        blobs = []
        for out in outs:
            with open(os.path.join(out, "report.json"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
        assert _read_report(outs[0])["config"]["subdivide"] == 0

    @pytest.mark.parametrize("value, code", [(-1, 1), (4, 2)])
    def test_document_subdivision_out_of_range_names_the_field(self, value, code,
                                                               tmp_path, capsys):
        doc = dict(fixture_document("octahedron-antipodal"), subdivision=value)
        path = _write(tmp_path, "map.json", doc)
        assert main(["map-analyze", path, "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert "'subdivision'" in err and "--subdivide" not in err


# sha256 of every chart written with --plots, taken when every command still
# built its charts whether or not --plots was given
CHARTS = {
    "decide-class fixture:free-cover-index": {
        "class_function.svg":
            "e916c2d151e78bbf1566508b12f9876e410705887660a4c9544a8125883327c6"},
    "map-analyze fixture:octahedron-antipodal": {
        "class_function.svg":
            "ae3ab1871441330eb5b57ba380479f04000654d103e1126c5c4d56c4a87b852f"},
    "field-analyze fixture:octahedron-polar-field": {
        "index_class.svg":
            "9ea0dd66e9794442d77d908c10e6d8f6e6181b700736ed336649862e2e5e8e91"},
    "map-analyze fixture:connected-sum-index": {
        "class_function.svg":
            "d48dfd79b33b1646430a6e973eeb5974e3d23e3b5e3f2a29b8a0cfe71a9b192f",
        "folner_averages.svg":
            "33cc66de335174bc33c5f186e93dde41503200c179a3106829a8d974fad648d8"},
}


class TestCharts:
    @pytest.mark.parametrize("command", sorted(CHARTS))
    def test_no_chart_is_built_without_plots(self, command, tmp_path, monkeypatch):
        def refuse(f):
            raise AssertionError("chart built without --plots")

        monkeypatch.setattr(cli, "_class_chart", refuse)
        assert main(command.split() + ["--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", sorted(CHARTS))
    def test_plots_are_unchanged(self, command, tmp_path):
        out = tmp_path / "out"
        assert main(command.split() + ["--out", str(out), "--plots"]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.glob("*.svg")}
        assert written == CHARTS[command]


class TestOptions:
    @pytest.mark.parametrize("argv, flag", [
        (["amenability", "fixture:genus2", "--radius", "-1"], "--radius"),
        (["map-analyze", "fixture:octahedron-antipodal", "--radius", "-1"], "--radius"),
        (["decide-class", "fixture:free-cover-index", "--capacity", "-2"], "--capacity"),
    ], ids=["amenability-radius", "map-analyze-radius", "decide-class-capacity"])
    def test_negative_budget_is_refused(self, argv, flag, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(argv + ["--out", out]) == 1
        assert f"{flag} must be >= 0, not {argv[-1]}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["amenability", "fixture:genus2", "--radius", "0"],
        ["decide-class", "fixture:free-cover-index", "--capacity", "0"],
    ], ids=["amenability-radius", "decide-class-capacity"])
    def test_zero_budget_runs(self, argv, tmp_path):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0

    def test_grid_default_is_the_tameness_floor(self):
        args = cli.build_parser().parse_args(["map-analyze", "fixture:sin-map"])
        assert args.grid == fixpoint.TAMENESS_GRID

    def test_every_option_named_in_the_source_exists(self):
        parser = cli.build_parser()
        [commands] = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        options = {s for p in commands.choices.values()
                   for a in p._actions for s in a.option_strings}
        named = {}
        source = os.path.dirname(cli.__file__)
        for path in sorted(glob.glob(os.path.join(source, "*.py"))):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    for option in re.findall(r"(?<![\w-])--[a-z][a-z-]*", node.value):
                        named.setdefault(option, os.path.basename(path))
        assert "--capacity" in named   # the scan reads error messages
        assert {o: f for o, f in named.items() if o not in options} == {}
