import numpy as np
import pytest

from cbgru.data import NumericError, make_rng
from cbgru.gradcheck import finite_diff_grad, max_relative_error


class TestElementwise:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^max_relative_error shape mismatch: \(2,\) vs \(3,\)$"):
            max_relative_error(np.ones(2), np.ones(3))


class TestFiniteDiff:
    def test_quadratic(self):
        theta = {"t": np.array([3.0])}
        grad = finite_diff_grad(lambda a: float(a["t"][0] ** 2), theta)
        assert grad["t"][0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        theta = {"t": np.array([1.0, 2.0, 3.0])}
        grad = finite_diff_grad(lambda a: 5.0, theta)
        assert np.array_equal(grad["t"], np.zeros(3))

    def test_sum(self):
        theta = {"t": make_rng(0).standard_normal((2, 3))}
        grad = finite_diff_grad(lambda a: float(a["t"].sum()), theta)
        assert np.allclose(grad["t"], 1.0, atol=1e-9)

    def test_nonfinite_objective(self):
        theta = {"t": np.array([0.0])}
        with pytest.raises(NumericError):
            finite_diff_grad(lambda a: float("nan"), theta)

    def test_restores_values(self):
        theta = {"t": np.array([1.0, -2.0])}
        before = theta["t"].copy()
        finite_diff_grad(lambda a: float(a["t"] @ a["t"]), theta)
        assert np.array_equal(theta["t"], before)


def test_max_relative_error_zero_on_equal():
    a = make_rng(1).standard_normal((3, 3))
    assert max_relative_error(a, a.copy()) == 0.0
