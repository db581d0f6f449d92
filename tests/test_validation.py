"""Frozen specs store the checked float, and malformed numbers raise ValidationError."""

from __future__ import annotations

import pytest

from esphere import (
    ChshSetup,
    Direction,
    JointTestSpec,
    Tolerance,
    ValidationError,
    chsh,
    classify,
    experiment_triple,
    simulate,
)
from esphere.validation import check_finite

Z_AXIS = Direction(0.0, 0.0, 1.0)
U2 = Direction.from_angles(1.0)


@pytest.mark.parametrize(("raw", "value"), [("0.5", 0.5), ("1e-9", 1e-9), (" 0.25 ", 0.25), (True, 1.0)])
class TestCheckedFloatIsStored:
    def test_joint_test_spec(self, raw: object, value: float) -> None:
        spec = JointTestSpec(u1=Z_AXIS, u2=U2, epsilon=raw)
        assert type(spec.epsilon) is float and spec.epsilon == value
        assert simulate(spec, 1000, 3) == simulate(JointTestSpec(u1=Z_AXIS, u2=U2, epsilon=value), 1000, 3)

    def test_chsh_setup(self, raw: object, value: float) -> None:
        setup = ChshSetup.coplanar(raw)
        assert type(setup.epsilon) is float and setup.epsilon == value
        assert chsh(setup) == chsh(ChshSetup.coplanar(value))

    def test_tolerance(self, raw: object, value: float) -> None:
        tol = Tolerance(raw)
        assert type(tol.eps_prob) is float and tol.eps_prob == value
        triple = experiment_triple(Z_AXIS, U2, 0.5)
        assert classify(triple, tol) == classify(triple, Tolerance(value))


class TestMalformedNumbers:
    @pytest.mark.parametrize("raw", ["abc", None, "", [0.5]])
    def test_check_finite(self, raw: object) -> None:
        with pytest.raises(ValidationError, match="x must be a number"):
            check_finite(raw, "x")

    @pytest.mark.parametrize("raw", ["abc", None])
    def test_constructors(self, raw: object) -> None:
        with pytest.raises(ValidationError):
            JointTestSpec(u1=Z_AXIS, u2=U2, epsilon=raw)
        with pytest.raises(ValidationError):
            ChshSetup.coplanar(raw)
        with pytest.raises(ValidationError):
            Tolerance(raw)
