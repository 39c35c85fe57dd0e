"""Finite-difference verification of every backward pass, on synthetic toy
instances: each layer in isolation plus the three full architectures.

A block passes when the max relative error between analytic gradients and
central finite differences (eps=1e-5, dropout off) stays below 1e-4.
``block_error`` makes that comparison for every block, and each model
check's batch holds a one-token pair padded with PAD ids, so it reaches the
frozen PAD columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from . import layers, model
from .data import PAD_ID, NumericError, SequenceBatch, make_rng

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
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def block_error(
    forward: Callable[[Mapping[str, np.ndarray]], np.ndarray],
    upstream: np.ndarray | float,
    arrays: Mapping[str, np.ndarray],
    analytic: Mapping[str, np.ndarray],
    pinned: Sequence[str] = (),
) -> float:
    """Worst relative error of the ``analytic`` gradients of
    sum(forward(arrays) * upstream) against its central differences, over
    every name of ``arrays``: a name ``analytic`` lacks raises KeyError.
    Each ``pinned`` table's PAD column is frozen, so its difference is
    pinned to zero, as its analytic gradient is."""
    fd = finite_diff_grad(lambda a: float(np.sum(forward(a) * upstream)), arrays)
    for name in pinned:
        fd[name][:, 0] = 0.0
    return max(max_relative_error(analytic[name], fd[name]) for name in fd)


def _check_embed(rng: np.random.Generator) -> float:
    n, n_tok, n_pos = 6, 9, 7
    arrays = {
        "word": rng.standard_normal((TOY["d_w"], n_tok)),
        "pos": rng.standard_normal((TOY["d_p"], n_pos)),
    }
    ids = np.stack([rng.integers(0, high, size=n) for high in (n_tok, n_pos, n_pos)])
    upstream = rng.standard_normal((TOY["d_w"] + 2 * TOY["d_p"], n))
    analytic = {name: np.zeros_like(value) for name, value in arrays.items()}
    layers.embed_backward(upstream, ids, analytic["word"], analytic["pos"])
    return block_error(lambda a: layers.embed_forward(ids, a["word"], a["pos"]), upstream, arrays, analytic)


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
    _, cache = layers.conv_forward(arrays["x"], arrays["W"], arrays["b"], k, lengths)
    analytic = dict(zip(("x", "W", "b"), layers.conv_backward(upstream, cache, arrays["W"])))
    return block_error(lambda a: layers.conv_forward(a["x"], a["W"], a["b"], k, lengths)[0], upstream, arrays, analytic)


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

    _, cache = layers.bigru_forward(arrays["x"], lengths, *directions(arrays))
    d_x, grads_f, grads_b = layers.bigru_backward(upstream, cache, *directions(arrays))
    # ``arrays`` holds x, f.W, f.U, f.b, b.W, b.U, b.b in that order
    analytic = dict(zip(arrays, (d_x, *grads_f, *grads_b)))
    return block_error(lambda a: layers.bigru_forward(a["x"], lengths, *directions(a))[0], upstream, arrays, analytic)


# pooling runs over ragged segments, one of them a single column, with two
# trailing columns that no segment covers
POOL_SEGMENTS = [3, 1, 2]


def _check_max_pool(rng: np.random.Generator) -> float:
    h = rng.standard_normal((2 * TOY["d_h"], sum(POOL_SEGMENTS) + 2))
    upstream = rng.standard_normal((2 * TOY["d_h"], len(POOL_SEGMENTS)))
    _, argmax = layers.max_pool(h, POOL_SEGMENTS)
    analytic = {"h": layers.max_pool_backward(upstream, argmax, h.shape)}
    return block_error(lambda a: layers.max_pool(a["h"], POOL_SEGMENTS)[0], upstream, {"h": h}, analytic)


def _check_attentive_pool(rng: np.random.Generator) -> float:
    rows = 2 * TOY["d_h"]
    arrays = {"h": rng.standard_normal((rows, sum(POOL_SEGMENTS) + 2)), "v": rng.standard_normal(rows)}
    upstream = rng.standard_normal((rows, len(POOL_SEGMENTS)))
    _, _, cache = layers.attentive_pool(arrays["h"], arrays["v"], POOL_SEGMENTS)
    analytic = dict(zip(("h", "v"), layers.attentive_pool_backward(upstream, cache, arrays["h"], arrays["v"])))
    return block_error(lambda a: layers.attentive_pool(a["h"], a["v"], POOL_SEGMENTS)[0], upstream, arrays, analytic)


def _check_full_model(rng: np.random.Generator, pooling: str, use_gru: bool, k: int) -> float:
    class_names = ["A", "B", "C"]
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
    # the ids each row draws from: 12 tokens (PAD, UNK and 10 words) and 14
    # positions (PAD and the distances -6..6); a token draws no PAD id
    highs = (12, 14, 14)
    params = model.init_params(cfg, *highs[:2])
    lengths = rng.integers(max(k, 3), 9, size=3)
    pairs = [np.stack([rng.integers(1, high, size=n) for high in highs]) for n in (*lengths, 1)]
    # the last pair has one token and is stored as encode stores it: PAD ids
    # fill the rest of its k columns, so the checks reach the PAD columns
    pairs[-1] = np.pad(pairs[-1], ((0, 0), (0, k - 1)), constant_values=PAD_ID)
    labels = rng.integers(0, len(class_names), size=4)
    batch = SequenceBatch(np.concatenate(pairs, axis=1), np.append(lengths, k), labels)
    analytic = {name: np.zeros_like(value) for name, value in params.values.items()}
    model.backward(model.forward(batch, cfg, params), params, analytic)
    return block_error(
        lambda _: model.forward(batch, cfg, params).loss, 1.0, params.values, analytic, pinned=params.pad_frozen()
    )


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
