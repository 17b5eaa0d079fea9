from fractions import Fraction

import pytest

from deckindex.errors import TamenessError
from deckindex.fixpoint import TamenessReport
from deckindex.fixtures import fixture_document, overridden_sin_field_document
from deckindex.vectorfield import (
    field_model_from_document,
    field_tameness_check,
    find_zeros,
    index_class,
    poincare_hopf_check,
)


@pytest.fixture(scope="module")
def sin_field():
    return field_model_from_document(fixture_document("sin-field"))


@pytest.fixture(scope="module")
def polar_field():
    return field_model_from_document(fixture_document("octahedron-polar-field"))


@pytest.fixture(scope="module")
def override_field():
    return field_model_from_document(fixture_document("sin-field-override"))


class TestFindZeros:
    def test_sin_field_four_zeros(self, sin_field):
        records = find_zeros(sin_field, 0)
        half = Fraction(1, 2)
        assert sorted(tuple(map(Fraction, r.position)) for r in records) == \
            [(0, 0), (0, half), (half, 0), (half, half)]

    def test_constant_field_has_no_zeros(self):
        model = field_model_from_document({
            "variant": "analytic", "fixture": "torus",
            "components": ["3/10", "0"], "bound": "1"})
        assert find_zeros(model, 0) == []

    def test_polar_field_two_zeros_at_face_centers(self, polar_field):
        records = find_zeros(polar_field)
        third = Fraction(1, 3)
        assert sorted(tuple(map(Fraction, r.position)) for r in records) == \
            [(-third, -third, -third), (third, third, third)]

    def test_override_window_has_eight_zeros(self, override_field):
        [w] = override_field.overrides
        zeros = override_field.zeros_in_window(w)
        assert len(zeros) == 8
        assert all(exact for _, exact in zeros)
        twelfth = Fraction(1, 12)
        locals_ = sorted(tuple(Fraction(c) - Fraction(t) for c, t in zip(z, w))
                         for z, _ in zeros)
        expected = sorted([(0, 0), (0, Fraction(1, 2)), (Fraction(1, 2), 0),
                           (Fraction(1, 2), Fraction(1, 2)),
                           (twelfth, twelfth), (twelfth, 5 * twelfth),
                           (5 * twelfth, twelfth), (5 * twelfth, 5 * twelfth)])
        assert locals_ == expected


class TestFieldIndex:
    def test_sin_field_indices(self, sin_field):
        half = Fraction(1, 2)
        by_pos = {tuple(map(Fraction, r.position)): r.index
                  for r in find_zeros(sin_field, 0)}
        assert by_pos == {(0, 0): 1, (0, half): -1, (half, 0): -1,
                          (half, half): 1}

    def test_polar_field_sink_and_source_have_index_one(self, polar_field):
        records = find_zeros(polar_field)
        assert [r.index for r in records] == [1, 1]

    def test_negated_field_indices_unchanged_in_even_dimension(self, sin_field):
        negated = field_model_from_document({
            "variant": "analytic", "fixture": "torus",
            "components": ["-sin(2*pi*x)", "-sin(2*pi*y)"], "bound": "2"})
        orig = {tuple(map(Fraction, r.position)): r.index for r in find_zeros(sin_field, 0)}
        for r in find_zeros(negated, 0):
            assert r.index == orig[tuple(map(Fraction, r.position))]


class TestIndexClass:
    def test_sin_field_class_zero(self, sin_field):
        cls = index_class(sin_field)
        assert cls.constant == 0 and not cls.finite

    def test_polar_field_class_totals_two(self, polar_field):
        cls = index_class(polar_field)
        assert cls.value(polar_field.group.identity()) == 2

    def test_override_pairs_cancel_within_cosets(self, override_field):
        cls = index_class(override_field)
        # equivariant part contributes 0; the extra pairs cancel, so every
        # finite entry is pruned and the class is the zero function
        assert cls.constant == 0
        assert cls.is_zero_function()

    def test_not_tame_refused(self):
        model = field_model_from_document({
            "variant": "analytic", "fixture": "torus",
            "components": ["0", "0"], "bound": "1"})
        with pytest.raises(TamenessError):
            index_class(model)

    def test_finite_cover_total_equals_chi(self, polar_field):
        from deckindex.complexes import euler_characteristic
        cls = index_class(polar_field)
        total = sum(cls.value(g) for g in polar_field.group.elements())
        assert total == euler_characteristic(polar_field.complex)


class TestTameness:
    def test_sin_field_strongly_tame(self, sin_field):
        report = field_tameness_check(sin_field)
        assert report.verdict == "strongly tame"

    def test_override_field_strongly_tame(self, override_field):
        report = field_tameness_check(override_field)
        assert report.verdict == "strongly tame"

    def test_polar_field_strongly_tame(self, polar_field):
        report = field_tameness_check(polar_field)
        assert report.verdict == "strongly tame"


class TestOverrideNextToBaseWindow:
    # the override window's own lattice-point zero must not be paired with
    # the base zero the override replaces
    @pytest.mark.parametrize("translate", ["a", "-b", "a b"])
    def test_strongly_tame_and_consistent(self, translate):
        model = field_model_from_document(overridden_sin_field_document(translate))
        report = field_tameness_check(model, grid=32)
        assert report.verdict == "strongly tame"
        assert len(find_zeros(model, 2)) == 56
        assert poincare_hopf_check(model, report=report)["consistent"]

    def test_identity_override_is_sampled_once(self):
        model = field_model_from_document(overridden_sin_field_document(""))
        pts, _ = model.sample_norms(32)
        assert len(pts) == len({tuple(p) for p in pts}) == 32 * 32
        # the report of the sampler that read the identity window twice
        assert field_tameness_check(model) == TamenessReport(
            delta=Fraction(7635497415, 274877906944),
            epsilon=Fraction(80601165407, 549755813888), verdict="strongly tame")


class TestPoincareHopf:
    def test_sin_field_consistent(self, sin_field):
        out = poincare_hopf_check(sin_field)
        assert out["euler_characteristic"] == 0
        assert out["consistent"]
        assert out["certificate"].verdict == "zero-by-boundary"

    def test_polar_field_consistent(self, polar_field):
        out = poincare_hopf_check(polar_field)
        assert out["euler_characteristic"] == 2
        assert out["consistent"]

    def test_override_field_consistent(self, override_field):
        out = poincare_hopf_check(override_field)
        assert out["consistent"]
        assert out["certificate"].verifier_result["verified"]

    def test_negated_field_verdict_unchanged(self, sin_field):
        negated = field_model_from_document({
            "variant": "analytic", "fixture": "torus",
            "components": ["-sin(2*pi*x)", "-sin(2*pi*y)"], "bound": "2"})
        assert poincare_hopf_check(negated)["consistent"] == \
            poincare_hopf_check(sin_field)["consistent"]

    def test_given_report_gates_the_class(self, sin_field):
        refused = TamenessReport(delta=None, epsilon=None, verdict="not tame")
        with pytest.raises(TamenessError, match="not tame"):
            poincare_hopf_check(sin_field, report=refused)
        out = poincare_hopf_check(sin_field,
                                  report=field_tameness_check(sin_field, grid=32))
        assert out["class_function"].to_document() == out["index_class"]
