import math

import numpy as np
import pytest

from cbgru.tensor import (
    DimensionError,
    NumericError,
    finite_diff_grad,
    glorot_init,
    log_softmax,
    make_rng,
    max_relative_error,
    sigmoid,
)


class TestGlorotInit:
    def test_bound_100x200(self):
        m = glorot_init(100, 200, make_rng(0))
        limit = math.sqrt(6.0 / 300.0)
        assert limit == pytest.approx(0.141421, abs=1e-6)
        assert np.all(np.abs(m) <= limit)

    def test_bound_1x1(self):
        values = [glorot_init(1, 1, make_rng(s))[0, 0] for s in range(200)]
        assert all(abs(v) <= math.sqrt(3.0) for v in values)

    def test_determinism(self):
        a = glorot_init(7, 9, make_rng(42))
        b = glorot_init(7, 9, make_rng(42))
        assert np.array_equal(a, b)

    def test_sample_mean_near_zero(self):
        m = glorot_init(100, 200, make_rng(3))
        limit = math.sqrt(6.0 / 300.0)
        sigma_mean = (limit / math.sqrt(3.0)) / math.sqrt(m.size)
        assert abs(m.mean()) < 3 * sigma_mean


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_tanh_zero(self):
        assert np.tanh(0.0) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            max_relative_error(np.ones(2), np.ones(3))

    def test_sigmoid_saturates_without_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_matches_logistic(self):
        x = np.linspace(-40.0, 40.0, 16001)
        expected = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
        assert np.max(np.abs(sigmoid(x) - expected)) <= 4.5e-16


def test_log_softmax_runs_down_each_column():
    x = make_rng(2).standard_normal((4, 3)) * 10.0
    out = log_softmax(x)
    for j in range(3):
        assert np.allclose(out[:, j], log_softmax(x[:, j]), atol=1e-15, rtol=0)
        assert np.exp(out[:, j]).sum() == pytest.approx(1.0, abs=1e-15)


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
