"""Forward and exact backward passes for every architectural block:
embedding lookups with position features, windowed 1-D convolution,
uni/bidirectional GRU, and masked max / attentive pooling.

Convention: a sequence of length n is a matrix with one column per step.
All operations here see only the valid (unpadded) steps of a sample, so
padding can never leak into activations or gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .tensor import (
    DegenerateInputError,
    DimensionError,
    StateError,
    sigmoid,
    softmax,
)

# one GRU direction: gates stacked in r, z, h order, W (3*d_h, d_in),
# U (3*d_h, d_h) and b (3*d_h,)
GruArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class EmbeddingTables:
    """Word table (d_w x |V_w|) and shared position table (d_p x |V_p|)."""

    word: np.ndarray
    pos: np.ndarray


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def embed_forward(
    token_ids: np.ndarray,
    pos1_ids: np.ndarray,
    pos2_ids: np.ndarray,
    tables: EmbeddingTables,
) -> np.ndarray:
    """Per-step concatenation [word_vec; pos1_vec; pos2_vec], one column per
    token. Output shape (d_w + 2*d_p, n)."""
    token_ids = np.asarray(token_ids)
    pos1_ids = np.asarray(pos1_ids)
    pos2_ids = np.asarray(pos2_ids)
    if not (len(token_ids) == len(pos1_ids) == len(pos2_ids)):
        raise DimensionError("id sequences differ in length")
    for ids, table, what in (
        (token_ids, tables.word, "token"),
        (pos1_ids, tables.pos, "pos1"),
        (pos2_ids, tables.pos, "pos2"),
    ):
        if len(ids) and (ids.min() < 0 or ids.max() >= table.shape[1]):
            raise IndexError(f"{what} id out of range for table width {table.shape[1]}")
    return np.concatenate(
        [tables.word[:, token_ids], tables.pos[:, pos1_ids], tables.pos[:, pos2_ids]],
        axis=0,
    )


def embed_backward(
    d_x: np.ndarray,
    token_ids: np.ndarray,
    pos1_ids: np.ndarray,
    pos2_ids: np.ndarray,
    grads: EmbeddingTables,
) -> None:
    """Scatter-add upstream column slices into the table gradient buffers.
    A token used twice accumulates both slices."""
    d_w = grads.word.shape[0]
    d_p = grads.pos.shape[0]
    if d_x.shape != (d_w + 2 * d_p, len(token_ids)):
        raise DimensionError(f"upstream shape {d_x.shape} does not match forward output")
    np.add.at(grads.word.T, np.asarray(token_ids), d_x[:d_w].T)
    np.add.at(grads.pos.T, np.asarray(pos1_ids), d_x[d_w : d_w + d_p].T)
    np.add.at(grads.pos.T, np.asarray(pos2_ids), d_x[d_w + d_p :].T)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, k: int
) -> Tuple[np.ndarray, dict]:
    """Window-concat affine map plus tanh: column j of the output is
    tanh(W . [x_j; ...; x_{j+k-1}] + b). Returns (C, cache) where C has
    n - k + 1 columns."""
    d_x, n = x.shape
    if k < 1:
        raise DimensionError("window size k must be >= 1")
    if weight.shape[1] != d_x * k:
        raise DimensionError(f"conv weight cols {weight.shape[1]} != d_x*k = {d_x * k}")
    if n < k:
        raise DegenerateInputError(f"sequence length {n} shorter than window {k}")
    steps = n - k + 1
    x_cat = np.concatenate([x[:, j : j + steps] for j in range(k)], axis=0)
    c = np.tanh(weight @ x_cat + bias[:, None])
    cache = {"x_cat": x_cat, "c": c, "d_x": d_x, "n": n, "k": k}
    return c, cache


def conv_backward(
    d_c: np.ndarray, cache: Optional[dict], weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d_input, d_weight, d_bias); overlapping windows sum into the
    shared input steps."""
    if cache is None:
        raise StateError("conv_backward called without a forward cache")
    c = cache["c"]
    d_a = d_c * (1.0 - c * c)
    d_weight = d_a @ cache["x_cat"].T
    d_bias = d_a.sum(axis=1)
    d_xcat = weight.T @ d_a
    d_x = np.zeros((cache["d_x"], cache["n"]))
    steps = c.shape[1]
    dim = cache["d_x"]
    for j in range(cache["k"]):
        d_x[:, j : j + steps] += d_xcat[j * dim : (j + 1) * dim]
    return d_x, d_weight, d_bias


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


def gru_step(
    x: np.ndarray, h_prev: np.ndarray, p: GruArrays
) -> Tuple[np.ndarray, dict]:
    """One recurrence step, with W_g, U_g, b_g the gate-g blocks of p:

        r = sigmoid(W_r x + U_r h_prev + b_r)
        z = sigmoid(W_z x + U_z h_prev + b_z)
        h_cand = tanh(W_h x + r * (U_h h_prev) + b_h)
        h = (1 - z) * h_prev + z * h_cand

    The update gate z weights the candidate state.
    """
    w, u, b = p
    if x.shape[0] != w.shape[1] or h_prev.shape[0] != u.shape[1]:
        raise DimensionError("gru_step operand shapes inconsistent with parameters")
    d = h_prev.shape[0]
    wx = w @ x
    uh_all = u @ h_prev
    r = sigmoid(wx[:d] + uh_all[:d] + b[:d])
    z = sigmoid(wx[d : 2 * d] + uh_all[d : 2 * d] + b[d : 2 * d])
    uh = uh_all[2 * d :].copy()  # the cache keeps only this block alive
    h_cand = np.tanh(wx[2 * d :] + r * uh + b[2 * d :])
    h = (1.0 - z) * h_prev + z * h_cand
    cache = {"x": x, "h_prev": h_prev, "r": r, "z": z, "uh": uh, "h_cand": h_cand}
    return h, cache


def gru_step_backward(
    d_h: np.ndarray, cache: dict, p: GruArrays, grads: GruArrays
) -> Tuple[np.ndarray, np.ndarray]:
    """Accumulates parameter gradients in place; returns (d_x, d_h_prev)."""
    r, z, uh, h_cand = cache["r"], cache["z"], cache["uh"], cache["h_cand"]
    x, h_prev = cache["x"], cache["h_prev"]
    w, u, _ = p
    g_w, g_u, g_b = grads

    d_ah = d_h * z * (1.0 - h_cand * h_cand)
    d_ar = d_ah * uh * r * (1.0 - r)
    d_az = d_h * (h_cand - h_prev) * z * (1.0 - z)
    # pre-activation gradients: the input side sees d_ah directly, the
    # recurrent side through the reset gate
    d_a = np.concatenate([d_ar, d_az, d_ah])
    d_ua = np.concatenate([d_ar, d_az, d_ah * r])
    g_w += np.outer(d_a, x)
    g_u += np.outer(d_ua, h_prev)
    g_b += d_a
    d_x = w.T @ d_a
    d_h_prev = d_h * (1.0 - z) + u.T @ d_ua
    return d_x, d_h_prev


def _gru_run(
    features: np.ndarray, p: GruArrays, reverse: bool
) -> Tuple[np.ndarray, List[dict]]:
    d_h = p[1].shape[1]
    steps = features.shape[1]
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = np.zeros(d_h)
    out = np.zeros((d_h, steps))
    caches: List[dict] = [None] * steps  # type: ignore[list-item]
    for j in order:
        h, caches[j] = gru_step(features[:, j], h, p)
        out[:, j] = h
    return out, caches


def bigru_forward(
    features: np.ndarray, fwd: GruArrays, bwd: GruArrays
) -> Tuple[np.ndarray, dict]:
    """Runs both directions over the feature columns (backward direction
    consumes the steps in reverse) and stacks [h_fwd; h_bwd] per step.
    Initial hidden states are zero."""
    if features.shape[1] < 1:
        raise DegenerateInputError("bigru_forward needs at least one step")
    out_f, caches_f = _gru_run(features, fwd, reverse=False)
    out_b, caches_b = _gru_run(features, bwd, reverse=True)
    h = np.concatenate([out_f, out_b], axis=0)
    cache = {"caches_f": caches_f, "caches_b": caches_b, "d_h": out_f.shape[0]}
    return h, cache


def bigru_backward(
    d_out: np.ndarray,
    cache: Optional[dict],
    fwd: GruArrays,
    bwd: GruArrays,
    grads_fwd: GruArrays,
    grads_bwd: GruArrays,
) -> np.ndarray:
    """Backpropagation through time for both directions; returns the
    gradient with respect to the input feature columns."""
    if cache is None:
        raise StateError("bigru_backward called without a forward cache")
    d_h = cache["d_h"]
    steps = d_out.shape[1]
    d_features = np.zeros((fwd[0].shape[1], steps))

    carry = np.zeros(d_h)
    for j in range(steps - 1, -1, -1):
        d_x, carry = gru_step_backward(d_out[:d_h, j] + carry, cache["caches_f"][j], fwd, grads_fwd)
        d_features[:, j] += d_x
    carry = np.zeros(d_h)
    for j in range(steps):
        d_x, carry = gru_step_backward(d_out[d_h:, j] + carry, cache["caches_b"][j], bwd, grads_bwd)
        d_features[:, j] += d_x
    return d_features


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def max_pool(h: np.ndarray, valid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise max over the first ``valid`` columns. Ties break toward the
    smallest column index. Returns (pooled, argmax)."""
    if valid < 1 or valid > h.shape[1]:
        raise DegenerateInputError(f"valid step count {valid} out of range for {h.shape[1]} columns")
    window = h[:, :valid]
    argmax = np.argmax(window, axis=1)
    pooled = window[np.arange(h.shape[0]), argmax]
    return pooled, argmax


def max_pool_backward(d_pooled: np.ndarray, argmax: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    d_h = np.zeros(shape)
    d_h[np.arange(shape[0]), argmax] = d_pooled
    return d_h


def attentive_pool(
    h: np.ndarray, v: np.ndarray, valid: int
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Attention-weighted summary of the first ``valid`` columns:

        alpha = softmax(v . tanh(H))   restricted to valid columns
        pooled = tanh(H alpha)

    Returns (pooled, alpha, cache) with alpha of full width and exact zeros
    at masked positions.
    """
    if valid < 1 or valid > h.shape[1]:
        raise DegenerateInputError(f"valid step count {valid} out of range for {h.shape[1]} columns")
    if v.shape[0] != h.shape[0]:
        raise DimensionError("attention vector length must equal H row count")
    hv = h[:, :valid]
    m = np.tanh(hv)
    scores = v @ m
    alpha_valid = softmax(scores)
    u = hv @ alpha_valid
    pooled = np.tanh(u)
    alpha = np.zeros(h.shape[1])
    alpha[:valid] = alpha_valid
    cache = {"m": m, "alpha": alpha_valid, "pooled": pooled, "valid": valid, "width": h.shape[1]}
    return pooled, alpha, cache


def attentive_pool_backward(
    d_pooled: np.ndarray, cache: Optional[dict], h: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Returns (d_H, d_v); masked columns of d_H are exactly zero."""
    if cache is None:
        raise StateError("attentive_pool_backward called without a forward cache")
    m, alpha, pooled, valid = cache["m"], cache["alpha"], cache["pooled"], cache["valid"]
    hv = h[:, :valid]

    d_u = d_pooled * (1.0 - pooled * pooled)
    d_hv = np.outer(d_u, alpha)
    d_alpha = hv.T @ d_u
    # softmax Jacobian applied to the score gradient
    d_scores = alpha * (d_alpha - float(alpha @ d_alpha))
    d_v = m @ d_scores
    d_m = np.outer(v, d_scores)
    d_hv += d_m * (1.0 - m * m)

    d_h = np.zeros_like(h)
    d_h[:, :valid] = d_hv
    return d_h, d_v
