"""The analytic model's shared analysis against plain references.

``_scalar_zeros_in_window`` is the per-start damped Newton loop the search
is defined by: each start iterates on its own, with at most 60 Newton
steps, at most 20 step halvings per step, acceptance on a strict drop of
the residual max-norm and a stop below 1e-13, its Jacobian evaluated one
point and one entry at a time.  The lockstep search must return exactly
the same (position, exact) list, floats bit for bit.
``_brute_force_hosts`` tests every nearby translate of every top cell
with ``point_in_simplex``; the table-driven host location must agree, on
Z^2 tori and on trivial-deck surfaces in R^3, and hand out the same
barycentric coordinates as a fresh solve.
"""

from dataclasses import replace
from fractions import Fraction
import itertools
import json

import numpy as np
import pytest

from deckindex import exprs
from deckindex.cli import main
from deckindex.fixpoint import (AffineCellModel, AnalyticModel, SimplicialMapModel,
                                find_fixed_points, locate_host_cells,
                                map_model_from_document, resolve_record)
from deckindex.complexes import barycentric_subdivide
from deckindex.errors import InputError
from deckindex.fixtures import (fixture_complex, fixture_document,
                                octahedron_sphere, torus_grid)
from deckindex.geometry import barycentric_coordinates, point_in_simplex
from deckindex.groups import FiniteGroup
from deckindex.vectorfield import (PLFieldModel, field_model_from_document,
                                   field_tameness_check, find_zeros,
                                   index_class, poincare_hopf_check)


def _scalar_zeros_in_window(model, window, plain=False):
    data = model.component_set(window, plain)
    components, jac = data.exprs, data.jacobian
    f = exprs.lambdify_vector(components, model.dim)
    entries = [[exprs._compile([e], exprs._floats()) for e in row] for row in jac]

    def jf(point):
        return np.array([[float(fn(point)[0]) for fn in row] for row in entries])

    base = np.array([float(x) for x in window])
    axes = [np.linspace(0.0, 1.0, model.grid, endpoint=False)
            + 0.5 / model.grid] * model.dim
    starts = np.array(list(itertools.product(*axes))) + base
    found = []
    for start, v0 in zip(starts, f(starts)):
        x, fx = start.copy(), v0
        norm = float(np.abs(fx).max())
        for _ in range(60):
            if norm < 1e-13:
                break
            try:
                step = np.linalg.solve(jf(x), fx)
            except np.linalg.LinAlgError:
                break
            lam, improved = 1.0, False
            for _ in range(20):
                xn = x - lam * step
                fn = f(xn[None, :])[0]
                if float(np.abs(fn).max()) < norm:
                    x, fx = xn, fn
                    norm = float(np.abs(fx).max())
                    improved = True
                    break
                lam /= 2
            if not improved:
                break
        if norm >= 1e-13:
            continue
        local = np.mod(x - base, 1.0)
        local = np.where(local > 1.0 - 1e-9, 0.0, local)
        found.append(tuple(local))
    unique = []
    for z in found:
        if not any(max(min(abs(a - b), 1 - abs(a - b))
                       for a, b in zip(z, w)) < 1e-7 for w in unique):
            unique.append(z)
    out = []
    for z in unique:
        snapped = [exprs.snap_to_rational(c) for c in z]
        if all(s is not None for s in snapped):
            point = tuple(s + Fraction(w) for s, w in zip(snapped, window))
            if exprs.Programs(components).vanishes(point):
                out.append((point, True))
                continue
        out.append((tuple(float(c) + float(w) for c, w in zip(z, window)), False))
    return sorted(out)


def _torus_model(components, bound="2"):
    return AnalyticModel(fixture_complex("torus"), components, Fraction(bound))


def _assert_same(model, window, plain=False):
    expected = _scalar_zeros_in_window(model, window, plain)
    got = model.zeros_in_window(window, plain=plain)
    assert got == expected
    # floats must agree bit for bit, not just compare equal
    assert [tuple(map(repr, p)) for p, _ in got] == \
        [tuple(map(repr, p)) for p, _ in expected]
    return got


def test_sin_map_base_window():
    model = map_model_from_document(fixture_document("sin-map"))
    got = _assert_same(model, (0, 0), plain=True)
    assert len(got) == 4 and all(exact for _, exact in got)


def test_sin_field_override_window():
    model = field_model_from_document(fixture_document("sin-field-override"))
    [w] = model.overrides
    got = _assert_same(model, w)
    assert len(got) == 8


def test_irrational_zeros():
    model = _torus_model(["sin(2*pi*x) - 1/3", "sin(2*pi*y) - 1/5"])
    got = _assert_same(model, (0, 0))
    assert len(got) == 4 and not any(exact for _, exact in got)
    _assert_same(model, (2, -1))


def test_singular_jacobian_at_some_starts():
    # the second row of the Jacobian, 2y - 17/32, vanishes exactly on the
    # starts with y = 17/64, so their first Newton system is singular
    model = _torus_model(["sin(2*pi*x)", "(y - 17/64)**2 - 1/100"])
    got = _assert_same(model, (0, 0))
    assert len(got) == 4


def test_everywhere_singular_jacobian_finds_nothing():
    model = _torus_model(["sin(2*pi*x)", "1/3"])
    assert _assert_same(model, (0, 0)) == []


def test_cached_list_is_a_copy():
    model = map_model_from_document(fixture_document("sin-map"))
    first = model.zeros_in_window((0, 0), plain=True)
    first.clear()
    assert len(model.zeros_in_window((0, 0), plain=True)) == 4
    records = model.window_records((1, 0))
    attached = records[0].index
    records[0].index = 7
    records.pop()
    again = model.window_records((1, 0))
    assert len(again) == 4 and again[0].index == attached in (1, -1)


def test_translated_records_match_fresh_resolution():
    model = map_model_from_document(fixture_document("sin-map"))
    for g in [(1, 0), (-2, 1), (0, -1)]:
        fresh = [replace(resolve_record(model.complex, pos),
                         index=model.local_index_at(pos, g))
                 for pos, _ in model.zeros_in_window(g, plain=True)]
        assert model.window_records(g) == fresh


def test_pipeline_searches_each_window_once(monkeypatch):
    model = field_model_from_document(fixture_document("sin-field-override"))
    calls = []
    search = model._search_zeros
    monkeypatch.setattr(model, "_search_zeros",
                        lambda data, window: calls.append((data, window)) or
                        search(data, window))
    report = field_tameness_check(model, grid=32)
    find_zeros(model, 2)
    poincare_hopf_check(model, report=report)
    index_class(model, report=report)
    [(w, override)] = model.overrides.items()
    assert len(calls) == 2
    assert set(calls) == {(override, w), (model.base, (0, 0))}


def test_records_carry_a_fresh_index():
    model = map_model_from_document(fixture_document("sin-map"))
    records = find_fixed_points(model, 2)
    assert len(records) == 4 * 13
    for r in records:
        assert r.index == model.local_index_at(r.position) in (1, -1)


@pytest.mark.parametrize("command,fixture", [
    ("map-analyze", "octahedron-rotation"),
    ("field-analyze", "octahedron-polar-field")])
def test_affine_zeros_are_solved_once_per_command(command, fixture, tmp_path,
                                                  monkeypatch):
    calls = []
    solve = AffineCellModel._solve_window
    monkeypatch.setattr(AffineCellModel, "_solve_window",
                        lambda model, window, plain: calls.append(window) or
                        solve(model, window, plain))
    # each source top cell is lifted once, for the solve and the sampling
    lifted = []

    def counted(affine_cell):
        return lambda model, idx: lifted.append(idx) or affine_cell(model, idx)

    for model_class, lift in ((SimplicialMapModel, "affine_cell"), (PLFieldModel, "_project")):
        monkeypatch.setattr(model_class, lift, counted(getattr(model_class, lift)))
    assert main([command, f"fixture:{fixture}", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert sorted(lifted) == list(fixture_complex("octahedron").cells(2))


@pytest.mark.parametrize("power", [2, 3])
def test_degenerate_zeros_stop_at_the_tameness_verdict(power, tmp_path):
    # the double and triple zeros of sin^power stay uncertified, so the
    # pipeline stops at "not tame" instead of failing
    doc = {"variant": "analytic", "fixture": "torus", "bound": "1/5",
           "components": [f"sin(2*pi*x)**{power}/10", "sin(2*pi*y)/10"]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["map-analyze", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["report"]["tameness"]["verdict"] == "not tame"


def _brute_force_hosts(q, position):
    # the torus cells span coordinates in (-1, 2), so a hosting translate g
    # has floor(c) - 2 <= g <= floor(c) + 1 in every coordinate c; a
    # trivial deck has the identity only
    n = q.dimension
    if isinstance(q.group, FiniteGroup):
        near = [q.group.identity()]
    else:
        near = list(itertools.product(*[range(int(c // 1) - 2, int(c // 1) + 2)
                                        for c in position]))
    out = []
    for idx in q.cells(n):
        for g in near:
            status = point_in_simplex(position, q.realize(n, idx, g))
            if status != "outside":
                out.append((g, idx, status))
    return out


def _torus_points(offset):
    # grid points, vertex-aligned points far out, and generic points
    sixths = [Fraction(a, 6) for a in range(6)]
    thirds = sixths[::2]
    points = [(x, y) for x in sixths for y in sixths]
    points += [(x + offset[0] - 1, y + offset[1] + 2) for x in thirds for y in thirds]
    points += [(x + Fraction(1, 17), y + Fraction(1, 29)) for x in thirds for y in thirds]
    return torus_grid(3, offset), points


def _octahedron_points(level):
    # vertices, edge midpoints and face barycentres, then points off the
    # surface: each face barycentre pulled halfway to the centre
    q = octahedron_sphere()
    if level:
        q = barycentric_subdivide(q, level).complex
    points = [tuple(sum(c) / (k + 1) for c in zip(*q.realize(k, idx)))
              for k in range(3) for idx in q.cells(k)]
    return q, points + [tuple(c / 2 for c in p) for p in points[-q.count(2):]]


@pytest.mark.parametrize("case,statuses", [
    pytest.param(lambda: _torus_points((Fraction(1, 5), Fraction(1, 9))),
                 {"interior", "boundary"}, id="offset0"),
    pytest.param(lambda: _torus_points((0, 0)), {"interior", "boundary"},
                 id="offset1"),
    pytest.param(lambda: _octahedron_points(0), {"interior", "boundary", "none"},
                 id="octahedron"),
    pytest.param(lambda: _octahedron_points(1), {"interior", "boundary", "none"},
                 id="octahedron-subdivided")])
def test_table_host_location_matches_brute_force(case, statuses):
    q, points = case()
    seen = set()
    for p in points:
        hosts = locate_host_cells(q, p)
        assert [h[:3] for h in hosts] == _brute_force_hosts(q, p)
        for g, idx, _, lam in hosts:
            assert lam == barycentric_coordinates(p, q.realize(q.dimension, idx, g))
        seen.update([h[2] for h in hosts] or ["none"])
    assert seen == statuses


def test_zero_not_inside_exactly_one_top_cell_is_refused():
    third = Fraction(1, 3)
    for point, where in [((0, 0, 0), "in no top cell"),
                         ((1, 0, 0), "on a simplex face"),
                         ((Fraction(1, 2), Fraction(1, 2), 0), "on a simplex face")]:
        with pytest.raises(InputError, match=f"the zero at .* lies {where}"):
            resolve_record(octahedron_sphere(), point)
    q = octahedron_sphere()
    q.coordinates[5] = q.coordinates[2]  # mz onto pz: each upper face twice
    with pytest.raises(InputError, match="lies inside 2 top cells"):
        resolve_record(q, (third, third, third))


def test_degenerate_top_cell_is_refused():
    q = octahedron_sphere()
    q.coordinates[2] = (Fraction(1, 2), Fraction(1, 2), Fraction(0))  # pz onto px-py
    with pytest.raises(InputError, match=r"top cell \(px, py, pz\) is degenerate"):
        locate_host_cells(q, (Fraction(0), Fraction(0), Fraction(1)))
