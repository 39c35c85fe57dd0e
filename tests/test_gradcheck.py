from functools import partial

import numpy as np
import pytest

from cbgru import gradcheck, layers, model
from cbgru.data import NumericError, make_rng
from cbgru.gradcheck import THRESHOLD, block_error, finite_diff_grad, max_relative_error


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


def test_block_error_requires_every_analytic_gradient():
    arrays = {"a": np.ones(2), "b": np.ones(3)}
    with pytest.raises(KeyError, match="'b'"):
        block_error(lambda a: a["a"] * a["b"].sum(), 1.0, arrays, {"a": np.full(2, 3.0)})


# Each check must go over THRESHOLD when any one analytic gradient it
# compares is wrong, so that no gradient escapes the comparison. The tests
# nudge one gradient at a time by wrapping the backward a check calls.

# each layer check, the layer backward it calls and how many gradients that
# backward gives
LAYER_CHECKS = {
    "embed": (gradcheck._check_embed, "embed_backward", 2),
    "conv_k1": (partial(gradcheck._check_conv, k=1), "conv_backward", 3),
    "conv_k2": (partial(gradcheck._check_conv, k=2), "conv_backward", 3),
    "conv_k3": (partial(gradcheck._check_conv, k=3), "conv_backward", 3),
    "bigru": (gradcheck._check_bigru, "bigru_backward", 7),
    "max_pool": (gradcheck._check_max_pool, "max_pool_backward", 1),
    "attentive_pool": (gradcheck._check_attentive_pool, "attentive_pool_backward", 2),
}
# each model check's pooling, use_gru and k
MODEL_CHECKS = {
    "model_cbgru_max": ("max", True, 3),
    "model_cbgru_att": ("attentive", True, 2),
    "model_cnn": ("max", False, 3),
}


@pytest.fixture
def fd_once(monkeypatch):
    """Differences computed once per test: nudging an analytic gradient
    changes neither the arrays nor the objective, so every later check run
    gets a copy of the first run's differences. Returns them by name."""
    first = {}

    def cached(f, arrays):
        if not first:
            first.update(finite_diff_grad(f, arrays))
        return {name: g.copy() for name, g in first.items()}

    monkeypatch.setattr(gradcheck, "finite_diff_grad", cached)
    return first


def nudging(backward, index, count):
    """``backward`` with 1e-3 added to the ``index``-th of the ``count``
    gradients it gives: the buffers ``embed_backward`` fills, else the
    arrays it returns, each direction's tuple of the biGRU unpacked."""

    def wrapped(*args):
        out = backward(*args)
        if out is None:
            grads = list(args[2:])
        else:
            items = out if isinstance(out, tuple) else (out,)
            grads = [g for item in items for g in (item if isinstance(item, tuple) else (item,))]
        assert len(grads) == count
        grads[index] += 1e-3
        return out

    return wrapped


@pytest.mark.parametrize("block", list(LAYER_CHECKS))
def test_layer_check_compares_every_gradient(monkeypatch, fd_once, block):
    check, backward, count = LAYER_CHECKS[block]
    assert check(make_rng(0)) < THRESHOLD
    for index in range(count):
        with monkeypatch.context() as m:
            m.setattr(layers, backward, nudging(getattr(layers, backward), index, count))
            assert check(make_rng(0)) >= THRESHOLD, f"{block} misses gradient {index}"


@pytest.mark.parametrize("variant", list(MODEL_CHECKS))
def test_model_check_compares_every_gradient(monkeypatch, fd_once, variant):
    """Every parameter's gradient, an embedding table's past its PAD
    column."""
    assert gradcheck._check_full_model(make_rng(0), *MODEL_CHECKS[variant]) < THRESHOLD
    assert {"cls.W", "embed.word"} <= set(fd_once)
    backward = model.backward
    for name in fd_once:

        def nudged(trace, params, grads, name=name):
            backward(trace, params, grads)
            grad = grads[name][:, 1:] if name in params.pad_frozen() else grads[name]
            grad += 1e-3

        with monkeypatch.context() as m:
            m.setattr(model, "backward", nudged)
            assert gradcheck._check_full_model(make_rng(0), *MODEL_CHECKS[variant]) >= THRESHOLD, name


@pytest.mark.parametrize("variant", list(MODEL_CHECKS))
def test_model_check_fails_without_pad_pin(monkeypatch, variant):
    """Unpinned, a frozen PAD column's zero analytic gradient meets a
    non-zero difference, a relative error of exactly 1: the batch's
    PAD-padded pair reaches the PAD columns, so the pin pins something."""
    monkeypatch.setattr(gradcheck, "block_error", lambda *args, pinned: block_error(*args))
    assert gradcheck._check_full_model(make_rng(0), *MODEL_CHECKS[variant]) == 1.0
