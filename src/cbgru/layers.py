"""Forward and exact backward passes for every architectural block:
embedding lookups with position features, windowed 1-D convolution,
uni/bidirectional GRU, and segment max / attentive pooling.

Convention: a sequence of length n is a matrix with one column per step. A
batch is the concatenation of its samples' columns, with ``lengths`` giving
each sample's column count; this is the layout in which ``data.encode``
stores a corpus, so the embedding reads a batch's (3, n) id block as it is
and no batch is padded to its longest sample. Every block takes the whole
batch at once in this layout, and no block mixes the columns of two samples.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .tensor import (
    DegenerateInputError,
    DimensionError,
    StateError,
    sigmoid,
)

# one GRU direction: gates stacked in r, z, h order, W (3*d_h, d_in),
# U (3*d_h, d_h) and b (3*d_h,)
GruArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _segments(lengths, width: int) -> np.ndarray:
    """Column counts of a batch's samples as an int array; an int is one
    segment. The segments tile the first ``sum(lengths)`` of ``width``
    columns."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() > width:
        raise DegenerateInputError(f"segment lengths {lengths.tolist()} do not fit {width} columns")
    return lengths


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def embed_forward(ids: np.ndarray, word: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per-step concatenation [word_vec; pos1_vec; pos2_vec], one column per
    column of ``ids``, whose rows hold token, pos1 and pos2 ids. ``word`` is
    the word table (d_w x |V_w|) and ``pos`` the shared position table
    (d_p x |V_p|). Output shape (d_w + 2*d_p, n)."""
    for row, table, what in zip(ids, (word, pos, pos), ("token", "pos1", "pos2")):
        if row.size and (row.min() < 0 or row.max() >= table.shape[1]):
            raise IndexError(f"{what} id out of range for table width {table.shape[1]}")
    return np.concatenate([word[:, ids[0]], pos[:, ids[1]], pos[:, ids[2]]], axis=0)


def embed_backward(d_x: np.ndarray, ids: np.ndarray, g_word: np.ndarray, g_pos: np.ndarray) -> None:
    """Scatter-add upstream column slices into the table gradient buffers.
    A token used twice accumulates both slices."""
    d_w = g_word.shape[0]
    d_p = g_pos.shape[0]
    if d_x.shape != (d_w + 2 * d_p, ids.shape[1]):
        raise DimensionError(f"upstream shape {d_x.shape} does not match forward output")
    np.add.at(g_word.T, ids[0], d_x[:d_w].T)
    np.add.at(g_pos.T, ids[1], d_x[d_w : d_w + d_p].T)
    np.add.at(g_pos.T, ids[2], d_x[d_w + d_p :].T)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, k: int, lengths, keep_cache: bool = True
) -> Tuple[np.ndarray, Optional[dict]]:
    """Window-concat affine map plus tanh over a batch of samples with
    ``lengths`` columns each: an output column is tanh(W . [x_j; ...;
    x_{j+k-1}] + b) for a window start j, and no window crosses a sample.
    Returns (C, cache) where C holds n - k + 1 columns per sample. Without
    ``keep_cache`` the cache is None and the windows are released as soon
    as C is formed."""
    d_x, n = x.shape
    if k < 1:
        raise DimensionError("window size k must be >= 1")
    if weight.shape[1] != d_x * k:
        raise DimensionError(f"conv weight cols {weight.shape[1]} != d_x*k = {d_x * k}")
    lengths = _segments(lengths, n)
    if lengths.sum() != n:
        raise DimensionError(f"segment lengths sum to {lengths.sum()}, not the {n} input columns")
    if lengths.min() < k:
        raise DegenerateInputError(f"sequence length {lengths.min()} shorter than window {k}")
    steps = lengths - k + 1
    # sample i's windows start i*(k-1) columns after its output columns
    starts = np.arange(steps.sum()) + np.repeat(np.arange(len(lengths)) * (k - 1), steps)
    x_cat = np.concatenate([x[:, starts + j] for j in range(k)], axis=0)
    c = weight @ x_cat
    c += bias[:, None]
    np.tanh(c, out=c)
    if not keep_cache:
        return c, None
    return c, {"x_cat": x_cat, "c": c, "starts": starts, "shape": x.shape, "k": k}


def conv_backward(
    d_c: np.ndarray, cache: Optional[dict], weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d_input, d_weight, d_bias); overlapping windows sum into the
    shared input steps. Within one window offset the windows' columns are
    distinct, so each offset is one fancy-index add. The cached windows are
    released once the weight gradient is formed, which lowers the peak
    memory of a training step, so a forward cache supports one backward
    pass."""
    if cache is None or "x_cat" not in cache:
        raise StateError("conv_backward called without an unused forward cache")
    c, starts = cache["c"], cache["starts"]
    d_a = d_c * (1.0 - c * c)
    d_weight = d_a @ cache.pop("x_cat").T
    d_bias = d_a.sum(axis=1)
    d_xcat = weight.T @ d_a
    d_x = np.zeros(cache["shape"])
    dim = d_x.shape[0]
    for j in range(cache["k"]):
        d_x[:, starts + j] += d_xcat[j * dim : (j + 1) * dim]
    return d_x, d_weight, d_bias


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------
#
# A batch runs packed: its samples are sorted by length, longest first (a
# stable sort), and step t holds the first k_t of them, those longer than t,
# as one contiguous block of columns of a (rows, total length) array. The
# forward direction packs sample i's column t at step t and the backward
# direction its column n_i - 1 - t, so both directions share the step
# bounds, start every sample from a zero state at step 0 and carry a state
# into the next step as the first k_{t+1} of the step's k_t columns.
# Padding is never stored, so no matmul shape depends on the padded width.


def gru_step(a: np.ndarray, h_prev: np.ndarray, u: np.ndarray) -> Tuple[np.ndarray, dict]:
    """One recurrence step for a block of samples, one per column. With
    ``a = W x + b`` the step's input projection (3*d_h, k) and U_g, a_g the
    gate-g blocks of U and a:

        r = sigmoid(a_r + U_r h_prev)
        z = sigmoid(a_z + U_z h_prev)
        h_cand = tanh(a_h + r * (U_h h_prev))
        h = (1 - z) * h_prev + z * h_cand

    The update gate z weights the candidate state.
    """
    d, k = h_prev.shape
    if a.shape != (3 * d, k) or u.shape != (3 * d, d):
        raise DimensionError("gru_step operand shapes inconsistent with parameters")
    uh_all = u @ h_prev
    rz = sigmoid(a[: 2 * d] + uh_all[: 2 * d])
    r, z = rz[:d], rz[d:]
    uh = uh_all[2 * d :].copy()  # the cache keeps only this block alive
    h_cand = np.tanh(a[2 * d :] + r * uh)
    h = (1.0 - z) * h_prev + z * h_cand
    cache = {"h_prev": h_prev, "r": r, "z": z, "uh": uh, "h_cand": h_cand}
    return h, cache


def gru_step_backward(
    d_h: np.ndarray, cache: dict, u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d_a, d_ua, d_h_prev): the gradients with respect to the input
    projection ``a`` and to ``U h_prev``, which the caller reduces into the
    weight gradients, and the gradient carried to the previous step."""
    r, z, uh, h_cand, h_prev = cache["r"], cache["z"], cache["uh"], cache["h_cand"], cache["h_prev"]
    d_ah = d_h * z * (1.0 - h_cand * h_cand)
    d_ar = d_ah * uh * r * (1.0 - r)
    d_az = d_h * (h_cand - h_prev) * z * (1.0 - z)
    # the input side sees d_ah directly, the recurrent side through the
    # reset gate
    d_a = np.concatenate([d_ar, d_az, d_ah])
    d_ua = np.concatenate([d_ar, d_az, d_ah * r])
    d_h_prev = d_h * (1.0 - z) + u.T @ d_ua
    return d_a, d_ua, d_h_prev


def _gru_run(
    packed: np.ndarray, bounds: List[int], p: GruArrays, keep_caches: bool
) -> Tuple[np.ndarray, Optional[List[dict]]]:
    """One direction over a packed batch; returns the packed hidden states
    and, with ``keep_caches``, one cache per step (else None, and each
    step's cache is dropped as soon as the step returns). ``packed`` is
    released once projected, if the caller holds no reference to it."""
    w, u, b = p
    a = w @ packed
    a += b[:, None]
    del packed
    out = np.empty((u.shape[1], a.shape[1]))
    caches: Optional[List[dict]] = [] if keep_caches else None
    h = np.zeros((u.shape[1], bounds[1]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h, step = gru_step(a[:, lo:hi], h[:, : hi - lo], u)
        if caches is not None:
            caches.append(step)
        out[:, lo:hi] = h
    return out, caches


def _gru_run_backward(
    d_out: np.ndarray,
    packed: np.ndarray,
    bounds: List[int],
    caches: List[dict],
    p: GruArrays,
    grads: GruArrays,
) -> np.ndarray:
    """Backpropagation through time for one ``_gru_run``. The steps only
    fill in the packed pre-activation gradients; each weight gradient is
    then one matmul. Each step's cache is released once it has been used,
    which lowers the peak memory of a training step. Returns the gradient
    with respect to ``packed``."""
    w, u, _ = p
    g_w, g_u, g_b = grads
    d_h = u.shape[1]
    total = packed.shape[1]
    d_a = np.empty((3 * d_h, total))
    d_ua = np.empty((3 * d_h, total))
    h_prev = np.empty((d_h, total))
    carry = np.zeros((d_h, 0))
    for t in range(len(caches) - 1, -1, -1):
        lo, hi = bounds[t], bounds[t + 1]
        d_step = d_out[:, lo:hi].copy()
        d_step[:, : carry.shape[1]] += carry
        step, caches[t] = caches[t], None
        d_a[:, lo:hi], d_ua[:, lo:hi], carry = gru_step_backward(d_step, step, u)
        h_prev[:, lo:hi] = step["h_prev"]
    g_w += d_a @ packed.T
    g_u += d_ua @ h_prev.T
    g_b += d_a.sum(axis=1)
    return w.T @ d_a


def _pack_layout(lengths: np.ndarray) -> Tuple[Tuple[np.ndarray, np.ndarray], List[int]]:
    """Returns the forward and the backward direction's column orders and
    the step bounds they share: packed column j of a direction holds column
    ``columns[j]`` of the samples' concatenation, and step t owns packed
    columns ``bounds[t]:bounds[t+1]``."""
    order = np.argsort(-lengths, kind="stable")
    counts = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0)
    samples = np.concatenate([order[:k] for k in counts])
    steps = np.repeat(np.arange(counts.size), counts)
    starts = (np.cumsum(lengths) - lengths)[samples]
    return (starts + steps, starts + lengths[samples] - 1 - steps), [0] + np.cumsum(counts).tolist()


def bigru_forward(
    features: np.ndarray, lengths, fwd: GruArrays, bwd: GruArrays, keep_cache: bool = True
) -> Tuple[np.ndarray, Optional[dict]]:
    """Runs both directions over a batch of feature columns (d_in, sum of
    lengths), the backward direction reading each sample from its last
    column to its first, and returns [h_fwd; h_bwd] (2*d_h, sum of lengths)
    in the same layout, with the cache that ``bigru_backward`` reads, or
    None without ``keep_cache``. Initial hidden states are zero. A sample's
    values can differ in the last bits with the other samples of its batch,
    because the matmuls run over the whole batch."""
    lengths = _segments(lengths, features.shape[1])
    if lengths.sum() != features.shape[1] or features.shape[0] != fwd[0].shape[1]:
        raise DimensionError(f"features {features.shape} do not match the lengths and GRU input width")
    (cols_f, cols_b), bounds = _pack_layout(lengths)
    out_f, caches_f = _gru_run(features[:, cols_f], bounds, fwd, keep_cache)
    out_b, caches_b = _gru_run(features[:, cols_b], bounds, bwd, keep_cache)
    d_h = out_f.shape[0]
    h = np.empty((2 * d_h, features.shape[1]))
    h[:d_h, cols_f] = out_f
    h[d_h:, cols_b] = out_b
    if not keep_cache:
        return h, None
    # no packed copy: the conv cache holds ``features`` already
    return h, {"features": features, "columns": (cols_f, cols_b), "bounds": bounds, "caches": [caches_f, caches_b]}


def bigru_backward(
    d_out: np.ndarray,
    cache: Optional[dict],
    fwd: GruArrays,
    bwd: GruArrays,
    grads_fwd: GruArrays,
    grads_bwd: GruArrays,
) -> np.ndarray:
    """Backpropagation through time for both directions of a batch: adds
    the weight gradients into ``grads_fwd``/``grads_bwd`` and returns the
    gradient with respect to the feature columns. It consumes the step
    caches, so a forward cache supports one backward pass."""
    if cache is None or "caches" not in cache:
        raise StateError("bigru_backward called without an unused forward cache")
    features, (cols_f, cols_b), bounds = cache["features"], cache["columns"], cache["bounds"]
    caches_f, caches_b = cache.pop("caches")
    d_h = fwd[1].shape[1]
    d_packed = _gru_run_backward(d_out[:d_h, cols_f], features[:, cols_f], bounds, caches_f, fwd, grads_fwd)
    # formed after the first direction's buffers are released, and the
    # second direction runs without d_packed, which lowers the peak memory
    d_features = np.empty_like(features)
    d_features[:, cols_f] = d_packed
    del d_packed
    d_features[:, cols_b] += _gru_run_backward(d_out[d_h:, cols_b], features[:, cols_b], bounds, caches_b, bwd, grads_bwd)
    return d_features


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------
#
# Pooling reduces each segment of ``lengths`` columns to one column of a
# (rows, segments) matrix; columns past the last segment are ignored. An int
# ``lengths`` is one segment, pooled to a one-column matrix.


def max_pool(h: np.ndarray, lengths, keep_cache: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Row-wise max over each segment. Ties break toward the smallest column
    index. Returns (pooled, argmax), argmax holding columns of ``h``; only
    ``max_pool_backward`` reads it, so without ``keep_cache`` it is not
    formed and is None."""
    seg = _segments(lengths, h.shape[1])
    starts = np.cumsum(seg) - seg
    hv = h[:, : seg.sum()]
    pooled = np.maximum.reduceat(hv, starts, axis=1)
    if not keep_cache:
        return pooled, None
    hits = np.where(hv == np.repeat(pooled, seg, axis=1), np.arange(hv.shape[1]), hv.shape[1])
    return pooled, np.minimum.reduceat(hits, starts, axis=1)


def max_pool_backward(d_pooled: np.ndarray, argmax: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    d_h = np.zeros(shape)
    rows = np.arange(shape[0])[:, None]
    d_h[rows, argmax] = d_pooled
    return d_h


def attentive_pool(
    h: np.ndarray, v: np.ndarray, lengths
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Attention-weighted summary of each segment of columns H_s:

        alpha_s = softmax(v . tanh(H_s))
        pooled_s = tanh(H_s alpha_s)

    Returns (pooled, alpha, cache) with one alpha per column of ``h``,
    exactly zero past the last segment.
    """
    seg = _segments(lengths, h.shape[1])
    if v.shape[0] != h.shape[0]:
        raise DimensionError("attention vector length must equal H row count")
    starts = np.cumsum(seg) - seg
    hv = h[:, : seg.sum()]
    m = np.tanh(hv)
    scores = v @ m
    # a stable softmax per segment
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), seg))
    alpha_valid = e / np.repeat(np.add.reduceat(e, starts), seg)
    pooled = np.tanh(np.add.reduceat(hv * alpha_valid, starts, axis=1))
    alpha = np.zeros(h.shape[1])
    alpha[: seg.sum()] = alpha_valid
    cache = {"m": m, "alpha": alpha_valid, "pooled": pooled, "seg": seg, "starts": starts}
    return pooled, alpha, cache


def attentive_pool_backward(
    d_pooled: np.ndarray, cache: Optional[dict], h: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Returns (d_H, d_v); columns past the last segment of d_H are exactly
    zero."""
    if cache is None:
        raise StateError("attentive_pool_backward called without a forward cache")
    m, alpha, pooled, seg, starts = (cache[key] for key in ("m", "alpha", "pooled", "seg", "starts"))
    hv = h[:, : seg.sum()]

    d_u = np.repeat(d_pooled * (1.0 - pooled * pooled), seg, axis=1)
    d_hv = d_u * alpha
    d_alpha = (hv * d_u).sum(axis=0)
    # softmax Jacobian applied to the score gradient, per segment
    d_scores = alpha * (d_alpha - np.repeat(np.add.reduceat(alpha * d_alpha, starts), seg))
    d_v = m @ d_scores
    d_m = np.outer(v, d_scores)
    d_hv += d_m * (1.0 - m * m)

    d_h = np.zeros_like(h)
    d_h[:, : seg.sum()] = d_hv
    return d_h, d_v
