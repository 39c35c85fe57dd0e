"""Finite-difference verification of every backward pass, on synthetic toy
instances: each layer in isolation plus the three full architectures.

A block passes when the max relative error between analytic gradients and
central finite differences (eps=1e-5, dropout off) stays below 1e-4. The
finite-difference gradient and the error measure are defined here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping

import numpy as np

from . import layers, model
from .data import NumericError, SequenceBatch, Vocab, make_rng

THRESHOLD = 1e-4
# step of the central differences in finite_diff_grad
FD_EPS = 1e-5
TOY = {"d_w": 6, "d_p": 2, "d_c": 5, "d_h": 4}


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < THRESHOLD


def finite_diff_grad(
    f: Callable[[Mapping[str, np.ndarray]], float],
    arrays: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Central-difference gradient of ``f``, with step ``FD_EPS``, with
    respect to every scalar in ``arrays``.

    Perturbs entries in place and restores them; ``f`` must be a
    deterministic function of the current array contents.
    """
    grads: Dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            fp = float(f(arrays))
            flat[i] = orig - FD_EPS
            fm = float(f(arrays))
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericError(f"non-finite objective while perturbing {name}[{i}]")
            gflat[i] = (fp - fm) / (2.0 * FD_EPS)
        grads[name] = g
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(|a|, |n|, 1e-6), reduced by max."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"max_relative_error shape mismatch: {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def _compare(analytic: Dict[str, np.ndarray], fd: Dict[str, np.ndarray]) -> float:
    return max(max_relative_error(analytic[name], fd[name]) for name in fd)


def _check_embed(rng: np.random.Generator) -> float:
    n, n_tok, n_pos = 6, 9, 7
    arrays = {
        "word": rng.standard_normal((TOY["d_w"], n_tok)),
        "pos": rng.standard_normal((TOY["d_p"], n_pos)),
    }
    ids = np.stack([rng.integers(0, high, size=n) for high in (n_tok, n_pos, n_pos)])
    upstream = rng.standard_normal((TOY["d_w"] + 2 * TOY["d_p"], n))

    def objective(a):
        return float(np.sum(layers.embed_forward(ids, a["word"], a["pos"]) * upstream))

    analytic = {name: np.zeros_like(value) for name, value in arrays.items()}
    layers.embed_backward(upstream, ids, analytic["word"], analytic["pos"])
    return _compare(analytic, finite_diff_grad(objective, arrays))


def _check_conv(rng: np.random.Generator, k: int) -> float:
    """Two samples in one batch, so a window that would cross them must be
    left out."""
    d_x = TOY["d_w"] + 2 * TOY["d_p"]
    lengths = np.array([rng.integers(max(k, 3), 9), k], dtype=np.int64)
    arrays = {
        "x": rng.standard_normal((d_x, sum(lengths))),
        "W": rng.standard_normal((TOY["d_c"], d_x * k)) * 0.3,
        "b": rng.standard_normal(TOY["d_c"]) * 0.3,
    }
    upstream = rng.standard_normal((TOY["d_c"], sum(lengths) - 2 * (k - 1)))

    def objective(a):
        c, _ = layers.conv_forward(a["x"], a["W"], a["b"], k, lengths)
        return float(np.sum(c * upstream))

    c, cache = layers.conv_forward(arrays["x"], arrays["W"], arrays["b"], k, lengths)
    d_x_grad, d_w, d_b = layers.conv_backward(upstream, cache, arrays["W"])
    analytic = {"x": d_x_grad, "W": d_w, "b": d_b}
    return _compare(analytic, finite_diff_grad(objective, arrays))


def _check_bigru(rng: np.random.Generator) -> float:
    """A ragged batch with a tie and a length-1 sample, so the packed steps
    shrink and both directions drop samples from their blocks."""
    d_c, d_h = TOY["d_c"], TOY["d_h"]
    lengths = np.array([5, 1, 3, 5], dtype=np.int64)
    arrays = {"x": rng.standard_normal((d_c, sum(lengths)))}
    for d in ("f", "b"):
        arrays[f"{d}.W"] = rng.standard_normal((3 * d_h, d_c)) * 0.4
        arrays[f"{d}.U"] = rng.standard_normal((3 * d_h, d_h)) * 0.4
        arrays[f"{d}.b"] = rng.standard_normal(3 * d_h) * 0.2
    upstream = rng.standard_normal((2 * d_h, sum(lengths)))

    def directions(a):
        return [tuple(a[f"{d}.{m}"] for m in ("W", "U", "b")) for d in ("f", "b")]

    def objective(a):
        h, _ = layers.bigru_forward(a["x"], lengths, *directions(a))
        return float(np.sum(h * upstream))

    _, cache = layers.bigru_forward(arrays["x"], lengths, *directions(arrays))
    d_x, grads_f, grads_b = layers.bigru_backward(upstream, cache, *directions(arrays))
    # ``arrays`` holds x, f.W, f.U, f.b, b.W, b.U, b.b in that order
    analytic = dict(zip(arrays, (d_x, *grads_f, *grads_b)))
    return _compare(analytic, finite_diff_grad(objective, arrays))


# pooling runs over ragged segments, one of them a single column, with two
# trailing columns that no segment covers
POOL_SEGMENTS = [3, 1, 2]


def _check_max_pool(rng: np.random.Generator) -> float:
    h = rng.standard_normal((2 * TOY["d_h"], sum(POOL_SEGMENTS) + 2))
    upstream = rng.standard_normal((2 * TOY["d_h"], len(POOL_SEGMENTS)))
    arrays = {"h": h}

    def objective(a):
        pooled, _ = layers.max_pool(a["h"], POOL_SEGMENTS)
        return float(np.sum(pooled * upstream))

    pooled, argmax = layers.max_pool(h, POOL_SEGMENTS)
    analytic = {"h": layers.max_pool_backward(upstream, argmax, h.shape)}
    return _compare(analytic, finite_diff_grad(objective, arrays))


def _check_attentive_pool(rng: np.random.Generator) -> float:
    rows = 2 * TOY["d_h"]
    arrays = {"h": rng.standard_normal((rows, sum(POOL_SEGMENTS) + 2)), "v": rng.standard_normal(rows)}
    upstream = rng.standard_normal((rows, len(POOL_SEGMENTS)))

    def objective(a):
        pooled, _, _ = layers.attentive_pool(a["h"], a["v"], POOL_SEGMENTS)
        return float(np.sum(pooled * upstream))

    pooled, _, cache = layers.attentive_pool(arrays["h"], arrays["v"], POOL_SEGMENTS)
    d_h, d_v = layers.attentive_pool_backward(upstream, cache, arrays["h"], arrays["v"])
    return _compare({"h": d_h, "v": d_v}, finite_diff_grad(objective, arrays))


def _toy_batch(rng: np.random.Generator, vocab: Vocab, n_samples: int, n_classes: int, k: int) -> SequenceBatch:
    lengths = rng.integers(max(k, 3), 9, size=n_samples)
    highs = (vocab.n_tokens, vocab.n_positions, vocab.n_positions)
    ids = np.concatenate([np.stack([rng.integers(1, high, size=n) for high in highs]) for n in lengths], axis=1)
    labels = rng.integers(0, n_classes, size=n_samples)
    return SequenceBatch(ids, lengths.astype(np.int64), labels)


def _check_full_model(rng: np.random.Generator, pooling: str, use_gru: bool, k: int) -> float:
    class_names = ["A", "B", "C"]
    vocab = Vocab(tokens=[f"w{i}" for i in range(10)], clip=6, class_names=class_names, positive_classes=["A", "B"])
    cfg = model.ModelConfig(
        d_w=TOY["d_w"],
        d_p=TOY["d_p"],
        d_c=TOY["d_c"],
        d_h=TOY["d_h"],
        k=k,
        pooling=pooling,
        use_gru=use_gru,
        dropout_p=0.0,
        l2_beta=0.001,
        seed=int(rng.integers(0, 2**31)),
        class_names=class_names,
    )
    params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
    batch = _toy_batch(rng, vocab, n_samples=3, n_classes=len(class_names), k=k)

    def objective(_arrays):
        return model.forward(batch, cfg, params).loss

    analytic = {name: np.zeros_like(value) for name, value in params.values.items()}
    model.backward(model.forward(batch, cfg, params), params, analytic)
    fd = finite_diff_grad(objective, params.values)
    # PAD columns are frozen: their analytic gradient is pinned to zero
    for name in params.pad_frozen():
        fd[name][:, 0] = 0.0
    return _compare(analytic, fd)


def run_gradcheck(seed: int = 0) -> List[CheckResult]:
    """Runs every block check."""
    rng = make_rng(seed)
    blocks = [
        ("embed", lambda: _check_embed(rng)),
        ("conv_k1", lambda: _check_conv(rng, 1)),
        ("conv_k2", lambda: _check_conv(rng, 2)),
        ("conv_k3", lambda: _check_conv(rng, 3)),
        ("bigru", lambda: _check_bigru(rng)),
        ("max_pool", lambda: _check_max_pool(rng)),
        ("attentive_pool", lambda: _check_attentive_pool(rng)),
        ("model_cbgru_max", lambda: _check_full_model(rng, "max", True, 3)),
        ("model_cbgru_att", lambda: _check_full_model(rng, "attentive", True, 2)),
        ("model_cnn", lambda: _check_full_model(rng, "max", False, 3)),
    ]
    return [CheckResult(name=name, max_rel_error=check()) for name, check in blocks]
