"""Predicates on outcome statistics: compatibility, separability, classicality."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from esphere import (
    ClassificationReport,
    ExperimentTriple,
    JointOutcomeProb,
    OutcomeProb,
    Tolerance,
    ValidationError,
    check_compatibility,
    check_product_criterion,
    check_separability,
    classify,
    is_classical_joint,
    is_classical_test,
    vessels_scenario,
)

from conftest import eighth_grid_joints, probabilities, product_triple

HALF = OutcomeProb(0.5, 0.5)
CERTAIN_YES = OutcomeProb(1.0, 0.0)
CERTAIN_NO = OutcomeProb(0.0, 1.0)


def triple(left: OutcomeProb, right: OutcomeProb, *joint: float) -> ExperimentTriple:
    return ExperimentTriple(left=left, right=right, joint=JointOutcomeProb(*joint))


class TestOutcomeProb:
    @pytest.mark.parametrize("p_yes,p_no", [(-0.1, 1.1), (0.6, 0.6), (1.2, -0.2), (0.5, 0.2)])
    def test_rejects_invalid(self, p_yes: float, p_no: float) -> None:
        with pytest.raises(ValidationError):
            OutcomeProb(p_yes, p_no)

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValidationError):
            OutcomeProb(float("nan"), 0.5)

    @pytest.mark.parametrize("p_yes,p_no", [("0.5", "0.5"), (True, False), (1, 0)])
    def test_stores_float_fields(self, p_yes, p_no) -> None:
        o = OutcomeProb(p_yes, p_no)
        assert (type(o.p_yes), type(o.p_no)) == (float, float)
        assert (o.p_yes, o.p_no) == (float(p_yes), float(p_no))

    @pytest.mark.parametrize("bad", ["abc", None])
    def test_rejects_non_numbers(self, bad) -> None:
        with pytest.raises(ValidationError):
            OutcomeProb(bad, 0.5)


class TestJointOutcomeProb:
    def test_as_tuple_orders_fields(self) -> None:
        j = JointOutcomeProb(0.1, 0.2, 0.3, 0.4)
        assert j.as_tuple() == (0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize(
        "values", [(0.5, 0.5, 0.5, 0.5), (0.1, 0.1, 0.1, 0.1), (1.5, -0.5, 0.0, 0.0)]
    )
    def test_rejects_invalid(self, values: tuple) -> None:
        with pytest.raises(ValidationError):
            JointOutcomeProb(*values)

    @pytest.mark.parametrize("values", [("0.25", "0.25", "0.25", "0.25"), (True, False, False, False)])
    def test_stores_float_fields(self, values: tuple) -> None:
        j = JointOutcomeProb(*values)
        assert [type(p) for p in j.as_tuple()] == [float] * 4
        assert j.as_tuple() == tuple(float(p) for p in values)

    @pytest.mark.parametrize("bad", ["abc", None])
    def test_rejects_non_numbers(self, bad) -> None:
        with pytest.raises(ValidationError):
            JointOutcomeProb(bad, 0.25, 0.25, 0.25)


class TestExperimentTriple:
    @pytest.mark.parametrize(
        "fields",
        [
            (None, None, None),
            (None, HALF, JointOutcomeProb(0.25, 0.25, 0.25, 0.25)),
            (HALF, (0.5, 0.5), JointOutcomeProb(0.25, 0.25, 0.25, 0.25)),
            (HALF, HALF, (0.25, 0.25, 0.25, 0.25)),
            (HALF, HALF, HALF),
            (JointOutcomeProb(0.25, 0.25, 0.25, 0.25), HALF, JointOutcomeProb(0.25, 0.25, 0.25, 0.25)),
        ],
    )
    def test_rejects_fields_of_the_wrong_type(self, fields: tuple) -> None:
        with pytest.raises(ValidationError):
            ExperimentTriple(*fields)


class TestTolerance:
    def test_default_is_analytic_scale(self) -> None:
        assert Tolerance().eps_prob == 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan")])
    def test_rejects_non_positive(self, bad: float) -> None:
        with pytest.raises(ValidationError):
            Tolerance(bad)


class TestCompatibility:
    def test_singlet_aligned_joint_is_compatible(self) -> None:
        ok, residuals = check_compatibility(triple(HALF, HALF, 0.0, 0.5, 0.5, 0.0))
        assert ok
        assert max(residuals) == 0.0

    def test_deterministic_identity_case(self) -> None:
        ok, _ = check_compatibility(triple(CERTAIN_YES, CERTAIN_YES, 1.0, 0.0, 0.0, 0.0))
        assert ok

    def test_vessels_style_mismatch_reports_half_residual(self) -> None:
        ok, residuals = check_compatibility(triple(CERTAIN_YES, CERTAIN_YES, 0.5, 0.0, 0.5, 0.0))
        assert not ok
        # left yes-marginal equation misses by one half
        assert residuals[0] == 0.5

    def test_accepts_plain_float_tolerance(self) -> None:
        ok, _ = check_compatibility(triple(HALF, HALF, 0.3, 0.2, 0.2, 0.3), tol=0.5)
        assert ok


class TestSeparability:
    def test_product_distribution_is_separated(self) -> None:
        ok, residuals = check_separability(triple(HALF, HALF, 0.25, 0.25, 0.25, 0.25))
        assert ok
        assert max(residuals) == 0.0

    def test_singlet_aligned_joint_is_not_separated(self) -> None:
        ok, residuals = check_separability(triple(HALF, HALF, 0.0, 0.5, 0.5, 0.0))
        assert not ok
        assert residuals[0] == 0.25

    def test_deterministic_product_case(self) -> None:
        ok, _ = check_separability(triple(CERTAIN_YES, CERTAIN_NO, 0.0, 1.0, 0.0, 0.0))
        assert ok

    @given(probabilities(), probabilities())
    def test_separability_implies_compatibility(self, p_left: float, p_right: float) -> None:
        t = product_triple(p_left, p_right)
        separated, _ = check_separability(t)
        compatible, _ = check_compatibility(t)
        assert separated
        assert compatible


class TestProductCriterion:
    def test_uniform_joint_passes(self) -> None:
        assert check_product_criterion(JointOutcomeProb(0.25, 0.25, 0.25, 0.25))

    def test_anticorrelated_joint_fails(self) -> None:
        # p1*p4 = 0 while p2*p3 = 1/4
        assert not check_product_criterion(JointOutcomeProb(0.0, 0.5, 0.5, 0.0))

    def test_quantum_third_angle_joint_fails(self) -> None:
        j = JointOutcomeProb(0.125, 0.375, 0.375, 0.125)
        assert j.p1 * j.p4 == 1.0 / 64.0
        assert j.p2 * j.p3 == 9.0 / 64.0
        assert not check_product_criterion(j)

    @given(eighth_grid_joints())
    def test_matches_separability_on_exact_grids(self, j: JointOutcomeProb) -> None:
        # marginals taken from the joint's own sums: compatibility is exact,
        # so the product criterion must agree with the separability predicate
        t = ExperimentTriple(
            left=OutcomeProb(j.p1 + j.p2, j.p3 + j.p4),
            right=OutcomeProb(j.p1 + j.p3, j.p2 + j.p4),
            joint=j,
        )
        tol = Tolerance(1e-15)
        compatible, residuals = check_compatibility(t, tol)
        assert compatible
        assert max(residuals) == 0.0
        separated, _ = check_separability(t, tol)
        assert separated == check_product_criterion(j, tol)


class TestClassicality:
    @pytest.mark.parametrize(
        "o,expected",
        [
            (OutcomeProb(1.0, 0.0), True),
            (OutcomeProb(0.5, 0.5), False),
            (OutcomeProb(1.0 - 1e-12, 1e-12), True),
            (OutcomeProb(1e-12, 1.0 - 1e-12), True),
        ],
    )
    def test_classical_test(self, o: OutcomeProb, expected: bool) -> None:
        assert is_classical_test(o) is expected

    @pytest.mark.parametrize(
        "j,expected",
        [
            (JointOutcomeProb(0.0, 1.0, 0.0, 0.0), True),
            (JointOutcomeProb(0.5, 0.0, 0.5, 0.0), False),
            (JointOutcomeProb(0.25, 0.25, 0.25, 0.25), False),
        ],
    )
    def test_classical_joint(self, j: JointOutcomeProb, expected: bool) -> None:
        assert is_classical_joint(j) is expected


def deterministic_marginal_triples() -> st.SearchStrategy[ExperimentTriple]:
    tol = Tolerance().eps_prob

    @st.composite
    def build(draw: st.DrawFn) -> ExperimentTriple:
        left_yes = draw(st.booleans())
        right_yes = draw(st.booleans())
        if draw(st.booleans()):
            # joint consistent with the marginals: near point mass on the
            # matching cell, jitter well inside the predicate tolerance
            jitter = draw(st.floats(min_value=0.0, max_value=tol / 8.0))
            cell = 2 * (not left_yes) + (not right_yes)
            probs = [jitter / 3.0] * 4
            probs[cell] = 1.0 - jitter
        else:
            weights = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(4)]
            total = sum(weights)
            probs = [w / total for w in weights]
        t = ExperimentTriple(
            left=CERTAIN_YES if left_yes else CERTAIN_NO,
            right=CERTAIN_YES if right_yes else CERTAIN_NO,
            joint=JointOutcomeProb(*probs),
        )
        # keep clear of the tolerance boundary, where the biconditional is
        # allowed to fray by construction of the predicates
        _, residuals = check_compatibility(t)
        assume(max(residuals) <= tol / 4.0 or max(residuals) >= 4.0 * tol)
        return t

    return build()


class TestDeterministicMarginals:
    @given(deterministic_marginal_triples())
    def test_compatible_iff_separated(self, t: ExperimentTriple) -> None:
        compatible, _ = check_compatibility(t)
        separated, _ = check_separability(t)
        assert compatible == separated

    @given(deterministic_marginal_triples())
    def test_compatible_implies_classical_joint(self, t: ExperimentTriple) -> None:
        compatible, _ = check_compatibility(t)
        if compatible:
            assert is_classical_joint(t.joint)


class TestClassify:
    @pytest.mark.parametrize("bad", ["abc", None])
    def test_rejects_bad_plain_tolerance(self, bad) -> None:
        with pytest.raises(ValidationError):
            classify(triple(HALF, HALF, 0.0, 0.5, 0.5, 0.0), bad)

    def test_singlet_aligned_triple(self) -> None:
        report = classify(triple(HALF, HALF, 0.0, 0.5, 0.5, 0.0))
        assert report.compatible
        assert not report.separated
        assert not report.classical_left
        assert not report.classical_joint

    def test_product_triple(self) -> None:
        report = classify(triple(HALF, HALF, 0.25, 0.25, 0.25, 0.25))
        assert report.compatible
        assert report.separated

    def test_vessels_alpha_beta_report(self) -> None:
        report = classify(vessels_scenario("alpha_beta"))
        assert isinstance(report, ClassificationReport)
        assert not report.compatible
        assert not report.separated
        assert report.classical_left
        assert report.classical_right
        assert not report.classical_joint

    @given(
        probabilities(),
        probabilities(),
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=4, max_size=4),
    )
    def test_never_separated_without_compatible(
        self, p_left: float, p_right: float, weights: list[float]
    ) -> None:
        total = sum(weights)
        t = ExperimentTriple(
            left=OutcomeProb(p_left, 1.0 - p_left),
            right=OutcomeProb(p_right, 1.0 - p_right),
            joint=JointOutcomeProb(*(w / total for w in weights)),
        )
        report = classify(t)
        assert not (report.separated and not report.compatible)


class TestVessels:
    def test_alpha_beta_joint(self) -> None:
        t = vessels_scenario("alpha_beta")
        assert t.left == CERTAIN_YES
        assert t.right == CERTAIN_YES
        assert t.joint.as_tuple() == (0.5, 0.0, 0.5, 0.0)

    def test_alpha_alpha_excludes_double_yes(self) -> None:
        t = vessels_scenario("alpha_alpha")
        assert t.joint.p1 == 0.0
        assert t.joint.as_tuple() == (0.0, 0.5, 0.5, 0.0)

    def test_alpha_alpha_is_not_compatible(self) -> None:
        ok, _ = check_compatibility(vessels_scenario("alpha_alpha"))
        assert not ok

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ValidationError):
            vessels_scenario("beta_beta")


class TestResidualIdentity:
    @given(eighth_grid_joints())
    def test_separability_residual_equals_product_gap_when_compatible(
        self, j: JointOutcomeProb
    ) -> None:
        # with marginals equal to the joint's sums, every separability
        # residual collapses to |p1*p4 - p2*p3|
        t = ExperimentTriple(
            left=OutcomeProb(j.p1 + j.p2, j.p3 + j.p4),
            right=OutcomeProb(j.p1 + j.p3, j.p2 + j.p4),
            joint=j,
        )
        _, residuals = check_separability(t)
        gap = abs(j.p1 * j.p4 - j.p2 * j.p3)
        assert all(math.isclose(res, gap, abs_tol=1e-15) for res in residuals)
