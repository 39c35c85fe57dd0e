import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgru import layers
from cbgru.tensor import (
    DegenerateInputError,
    DimensionError,
    StateError,
    finite_diff_grad,
    make_rng,
    max_relative_error,
    sigmoid,
)


def random_tables(rng, d_w=6, d_p=2, n_tok=9, n_pos=7):
    """(word, pos) tables."""
    return rng.standard_normal((d_w, n_tok)), rng.standard_normal((d_p, n_pos))


def id_block(tokens, pos1, pos2):
    return np.array([tokens, pos1, pos2], dtype=np.int64)


def gru_shapes(d_in, d_h):
    return [(3 * d_h, d_in), (3 * d_h, d_h), (3 * d_h,)]


def zero_gru(d_in, d_h):
    return tuple(np.zeros(shape) for shape in gru_shapes(d_in, d_h))


def random_gru(rng, d_in, d_h, scale=0.5):
    return tuple(rng.standard_normal(shape) * scale for shape in gru_shapes(d_in, d_h))


class TestEmbedding:
    def test_token_vector_length(self):
        rng = make_rng(0)
        word, pos = rng.standard_normal((100, 5)), rng.standard_normal((10, 5))
        x = layers.embed_forward(id_block([1, 2], [1, 2], [3, 4]), word, pos)
        assert x.shape == (120, 2)

    def test_single_token(self):
        x = layers.embed_forward(id_block([2], [1], [1]), *random_tables(make_rng(1)))
        assert x.shape[1] == 1

    def test_identical_ids_identical_columns(self):
        tables = random_tables(make_rng(2))
        x = layers.embed_forward(id_block([3, 3], [2, 2], [4, 4]), *tables)
        assert np.array_equal(x[:, 0], x[:, 1])

    def test_id_out_of_range(self):
        with pytest.raises(IndexError):
            layers.embed_forward(id_block([99], [0], [0]), *random_tables(make_rng(0)))

    def test_backward_repeated_token_sums(self):
        g_word, g_pos = (np.zeros_like(t) for t in random_tables(make_rng(3)))
        upstream = make_rng(4).standard_normal((10, 2))
        layers.embed_backward(upstream, id_block([5, 5], [1, 2], [3, 4]), g_word, g_pos)
        assert np.allclose(g_word[:, 5], upstream[:6, 0] + upstream[:6, 1])

    def test_backward_ones_single_token(self):
        g_word, g_pos = (np.zeros_like(t) for t in random_tables(make_rng(5)))
        layers.embed_backward(np.ones((10, 1)), id_block([4], [2], [3]), g_word, g_pos)
        assert np.array_equal(g_word[:, 4], np.ones(6))

    def test_backward_shape_mismatch(self):
        g_word, g_pos = (np.zeros_like(t) for t in random_tables(make_rng(0)))
        with pytest.raises(DimensionError):
            layers.embed_backward(np.ones((3, 1)), id_block([0], [0], [0]), g_word, g_pos)


class TestConv:
    def test_output_step_count(self):
        rng = make_rng(0)
        x = rng.standard_normal((4, 7))
        w = rng.standard_normal((5, 12))
        c, _ = layers.conv_forward(x, w, np.zeros(5), 3, [7])
        assert c.shape == (5, 5)

    def test_zero_weights(self):
        c, _ = layers.conv_forward(np.ones((4, 6)), np.zeros((5, 8)), np.zeros(5), 2, [6])
        assert np.array_equal(c, np.zeros((5, 5)))

    def test_matches_naive_window_loop(self):
        rng = make_rng(1)
        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        c, _ = layers.conv_forward(x, w, b, 3, [6])
        for j in range(4):
            window = np.concatenate([x[:, j], x[:, j + 1], x[:, j + 2]])
            assert np.allclose(c[:, j], np.tanh(w @ window + b), atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInputError):
            layers.conv_forward(np.ones((3, 2)), np.ones((4, 9)), np.zeros(4), 3, [2])
        with pytest.raises(DegenerateInputError):
            layers.conv_forward(np.ones((3, 6)), np.ones((4, 9)), np.zeros(4), 3, [4, 2])

    def test_lengths_must_cover_the_columns(self):
        with pytest.raises(DimensionError):
            layers.conv_forward(np.ones((3, 7)), np.ones((4, 9)), np.zeros(4), 3, [3, 3])

    def test_backward_missing_cache(self):
        with pytest.raises(StateError):
            layers.conv_backward(np.ones((4, 2)), None, np.ones((4, 9)))
        w = np.ones((4, 9))
        _, cache = layers.conv_forward(np.ones((3, 4)), w, np.zeros(4), 3, [4])
        layers.conv_backward(np.ones((4, 2)), cache, w)
        with pytest.raises(StateError):
            layers.conv_backward(np.ones((4, 2)), cache, w)

    def test_without_cache_same_output(self):
        rng = make_rng(10)
        x = rng.standard_normal((3, 9))
        w = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        c, cache = layers.conv_forward(x, w, b, 3, [6, 3])
        c_bare, none = layers.conv_forward(x, w, b, 3, [6, 3], keep_cache=False)
        assert none is None and "x_cat" in cache
        assert np.array_equal(c_bare, c)

    def test_backward_vs_finite_diff(self):
        rng = make_rng(2)
        for k in (1, 2, 3):
            x = rng.standard_normal((4, 6))
            arrays = {
                "x": x,
                "W": rng.standard_normal((5, 4 * k)) * 0.4,
                "b": rng.standard_normal(5) * 0.4,
            }
            upstream = rng.standard_normal((5, 6 - k + 1))

            def objective(a):
                c, _ = layers.conv_forward(a["x"], a["W"], a["b"], k, [6])
                return float(np.sum(c * upstream))

            c, cache = layers.conv_forward(arrays["x"], arrays["W"], arrays["b"], k, [6])
            d_x, d_w, d_b = layers.conv_backward(upstream, cache, arrays["W"])
            fd = finite_diff_grad(objective, arrays)
            for name, analytic in (("x", d_x), ("W", d_w), ("b", d_b)):
                assert max_relative_error(analytic, fd[name]) < 1e-4

    def test_backward_zero_upstream(self):
        rng = make_rng(3)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((4, 6))
        _, cache = layers.conv_forward(x, w, np.zeros(4), 2, [5])
        d_x, d_w, d_b = layers.conv_backward(np.zeros((4, 4)), cache, w)
        assert not d_x.any() and not d_w.any() and not d_b.any()

    def test_k1_equals_dense_layer(self):
        rng = make_rng(4)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        c, cache = layers.conv_forward(x, w, b, 1, [5])
        assert np.allclose(c, np.tanh(w @ x + b[:, None]), atol=1e-15)
        upstream = rng.standard_normal(c.shape)
        d_x, d_w, d_b = layers.conv_backward(upstream, cache, w)
        d_a = upstream * (1 - c * c)
        assert np.allclose(d_w, d_a @ x.T, atol=1e-15)
        assert np.allclose(d_x, w.T @ d_a, atol=1e-15)

    def test_two_samples_concatenated_match_alone(self):
        # the second sample is exactly k long, so it has one window
        rng = make_rng(5)
        k = 3
        x1, x2 = rng.standard_normal((4, 6)), rng.standard_normal((4, k))
        w = rng.standard_normal((5, 4 * k))
        b = rng.standard_normal(5)
        c, cache = layers.conv_forward(np.concatenate([x1, x2], axis=1), w, b, k, [6, k])
        c1, cache1 = layers.conv_forward(x1, w, b, k, [6])
        c2, cache2 = layers.conv_forward(x2, w, b, k, [k])
        assert c.shape == (5, 4 + 1)
        assert np.allclose(c, np.concatenate([c1, c2], axis=1), atol=1e-15, rtol=0)
        upstream = rng.standard_normal(c.shape)
        d_x, d_w, d_b = layers.conv_backward(upstream, cache, w)
        d_x1, d_w1, d_b1 = layers.conv_backward(upstream[:, :4], cache1, w)
        d_x2, d_w2, d_b2 = layers.conv_backward(upstream[:, 4:], cache2, w)
        assert np.allclose(d_x, np.concatenate([d_x1, d_x2], axis=1), atol=1e-14, rtol=0)
        assert np.allclose(d_w, d_w1 + d_w2, atol=1e-14, rtol=0)
        assert np.allclose(d_b, d_b1 + d_b2, atol=1e-14, rtol=0)


def scored_columns(scores, shift=0.0):
    """(h, v) whose attention scores are exactly ``scores`` + ``shift``:
    tanh(50) is 1.0 and tanh(0) is 0.0, so tanh(h) is one diagonal row per
    column plus a row of ones, which ``v`` weights by the shift."""
    n = len(scores)
    h = np.vstack([50.0 * np.eye(n), np.full((1, n), 50.0)])
    return h, np.append(scores, shift)


def projection(p, x):
    w, _, b = p
    return w @ x + b[:, None]


def bigru_and_grads(feats, fwd, bwd, upstream):
    """Outputs and feature gradients, split per sample, and the weight
    gradients of one batch."""
    lengths = [f.shape[1] for f in feats]
    splits = np.cumsum(lengths)[:-1]
    h, cache = layers.bigru_forward(np.concatenate(feats, axis=1), lengths, fwd, bwd)
    d_in = fwd[0].shape[1]
    d_h = fwd[1].shape[1]
    gf, gb = zero_gru(d_in, d_h), zero_gru(d_in, d_h)
    d_feats = layers.bigru_backward(np.concatenate(upstream, axis=1), cache, fwd, bwd, gf, gb)
    return np.split(h, splits, axis=1), np.split(d_feats, splits, axis=1), gf + gb


class TestGruStep:
    def test_zero_weights_closed_form(self):
        p = zero_gru(3, 4)
        h_prev = make_rng(0).standard_normal((4, 2))
        h, cache = layers.gru_step(projection(p, np.ones((3, 2))), h_prev, p[1])
        assert np.allclose(cache["r"], 0.5)
        assert np.allclose(cache["z"], 0.5)
        assert np.allclose(cache["h_cand"], 0.0)
        assert np.allclose(h, 0.5 * h_prev)

    def test_all_zero_inputs(self):
        p = zero_gru(3, 4)
        h, _ = layers.gru_step(projection(p, np.zeros((3, 2))), np.zeros((4, 2)), p[1])
        assert np.array_equal(h, np.zeros((4, 2)))

    def test_matches_scalar_oracle(self):
        rng = make_rng(1)
        p = random_gru(rng, 3, 4)
        x = rng.standard_normal((3, 2))
        h_prev = rng.standard_normal((4, 2))
        h, _ = layers.gru_step(projection(p, x), h_prev, p[1])
        w, u, b = p
        # gate blocks are stacked in r, z, h order
        w_r, w_z, w_h = w[:4], w[4:8], w[8:]
        u_r, u_z, u_h = u[:4], u[4:8], u[8:]
        b_r, b_z, b_h = b[:4], b[4:8], b[8:]
        for j in range(2):
            xj, hj = x[:, j], h_prev[:, j]
            for i in range(4):
                r = 1.0 / (1.0 + math.exp(-(w_r[i] @ xj + u_r[i] @ hj + b_r[i])))
                z = 1.0 / (1.0 + math.exp(-(w_z[i] @ xj + u_z[i] @ hj + b_z[i])))
                cand = math.tanh(w_h[i] @ xj + r * (u_h[i] @ hj) + b_h[i])
                assert h[i, j] == pytest.approx((1 - z) * hj[i] + z * cand, abs=1e-12)

    def test_output_is_convex_combination(self):
        rng = make_rng(2)
        for _ in range(100):
            p = random_gru(rng, 3, 4, scale=1.0)
            x = rng.standard_normal((3, 3))
            h_prev = rng.standard_normal((4, 3))
            h, cache = layers.gru_step(projection(p, x), h_prev, p[1])
            lo = np.minimum(h_prev, cache["h_cand"])
            hi = np.maximum(h_prev, cache["h_cand"])
            assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)

    def test_shape_mismatch(self):
        u = zero_gru(3, 4)[1]
        with pytest.raises(DimensionError):
            layers.gru_step(np.ones((5, 1)), np.ones((4, 1)), u)
        with pytest.raises(DimensionError):
            layers.gru_step(np.ones((12, 2)), np.ones((4, 1)), u)


class TestBigru:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
    def test_pack_layout(self, lengths):
        # short lengths, so that ties and length-1 samples are common
        lengths = np.array(lengths)
        (forward, backward), bounds = layers._pack_layout(lengths)
        starts = np.cumsum(lengths) - lengths
        sample_of = np.repeat(np.arange(lengths.size), lengths)
        for columns in (forward, backward):
            assert np.array_equal(np.sort(columns), np.arange(lengths.sum()))
        # both packings hold the same sample in every packed column, so they
        # share the step bounds
        assert np.array_equal(sample_of[forward], sample_of[backward])
        assert bounds[0] == 0 and bounds[-1] == lengths.sum() and len(bounds) == lengths.max() + 1
        longest_first = np.argsort(-lengths, kind="stable")
        previous = longest_first
        for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            samples = sample_of[forward[lo:hi]]
            assert np.array_equal(samples, longest_first[lengths[longest_first] > t])
            assert np.array_equal(samples, previous[: hi - lo])
            previous = samples
        for i in range(lengths.size):
            steps = np.arange(lengths[i])
            assert np.array_equal(forward[sample_of[forward] == i], starts[i] + steps)
            assert np.array_equal(backward[sample_of[backward] == i], starts[i] + lengths[i] - 1 - steps)

    def test_single_step_concat(self):
        rng = make_rng(0)
        fwd = random_gru(rng, 3, 4)
        bwd = random_gru(rng, 3, 4)
        feats = rng.standard_normal((3, 1))
        h, _ = layers.bigru_forward(feats, [1], fwd, bwd)
        assert h.shape == (8, 1)
        hf, _ = layers.gru_step(projection(fwd, feats), np.zeros((4, 1)), fwd[1])
        hb, _ = layers.gru_step(projection(bwd, feats), np.zeros((4, 1)), bwd[1])
        assert np.array_equal(h, np.concatenate([hf, hb]))

    def test_output_rows_twice_hidden(self):
        rng = make_rng(1)
        fwd = random_gru(rng, 2, 100, scale=0.1)
        bwd = random_gru(rng, 2, 100, scale=0.1)
        h, _ = layers.bigru_forward(rng.standard_normal((2, 4)), [3, 1], fwd, bwd)
        assert h.shape == (200, 4)

    def test_reversal_symmetry(self):
        rng = make_rng(2)
        fwd = random_gru(rng, 3, 4)
        bwd = random_gru(rng, 3, 4)
        feats = [rng.standard_normal((3, n)) for n in (5, 2, 4)]
        zeros = [np.zeros((8, f.shape[1])) for f in feats]
        hs, _, _ = bigru_and_grads(feats, fwd, bwd, zeros)
        hs_rev, _, _ = bigru_and_grads([f[:, ::-1] for f in feats], bwd, fwd, zeros)
        # swapping directions on the reversed input flips columns and halves
        for h, h_rev in zip(hs, hs_rev):
            assert np.allclose(h_rev[:4], h[4:, ::-1], atol=1e-15)
            assert np.allclose(h_rev[4:], h[:4, ::-1], atol=1e-15)

    def test_without_cache_same_output_same_steps(self, monkeypatch):
        rng = make_rng(10)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        feats = rng.standard_normal((3, 9))
        calls = []
        gru_step = layers.gru_step
        monkeypatch.setattr(layers, "gru_step", lambda *args: calls.append(1) or gru_step(*args))
        h, cache = layers.bigru_forward(feats, [4, 1, 4], fwd, bwd)
        h_bare, none = layers.bigru_forward(feats, [4, 1, 4], fwd, bwd, keep_cache=False)
        assert none is None and [len(caches) for caches in cache["caches"]] == [4, 4]
        assert np.array_equal(h_bare, h)
        # every step of both runs goes through gru_step
        assert len(calls) == 2 * 2 * 4

    def test_empty_sequence_rejected(self):
        rng = make_rng(3)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        for feats, lengths in ((np.zeros((3, 0)), [0]), (np.ones((3, 2)), [2, 0]), (np.zeros((3, 0)), [])):
            with pytest.raises(DegenerateInputError):
                layers.bigru_forward(feats, lengths, fwd, bwd)

    def test_backward_missing_cache(self):
        rng = make_rng(4)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        g = zero_gru(3, 4)
        with pytest.raises(StateError):
            layers.bigru_backward(np.ones((8, 2)), None, fwd, bwd, g, g)
        _, cache = layers.bigru_forward(np.ones((3, 2)), [2], fwd, bwd)
        layers.bigru_backward(np.ones((8, 2)), cache, fwd, bwd, g, g)
        with pytest.raises(StateError):
            layers.bigru_backward(np.ones((8, 2)), cache, fwd, bwd, g, g)

    def test_backward_zero_upstream(self):
        rng = make_rng(5)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        feats = [rng.standard_normal((3, n)) for n in (4, 1, 2)]
        _, d_feats, grads = bigru_and_grads(feats, fwd, bwd, [np.zeros((8, f.shape[1])) for f in feats])
        assert not any(d.any() for d in d_feats)
        assert not any(g.any() for g in grads)

    def test_backward_vs_finite_diff_length5(self):
        from cbgru.gradcheck import _check_bigru

        assert _check_bigru(make_rng(6)) < 1e-4

    def test_length1_matches_single_step_gradient(self):
        rng = make_rng(7)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        feats = rng.standard_normal((3, 1))
        upstream = rng.standard_normal((8, 1))
        _, (d_feats,), grads = bigru_and_grads([feats], fwd, bwd, [upstream])

        expected = []
        d_x = np.zeros((3, 1))
        for p, d_h in ((fwd, upstream[:4]), (bwd, upstream[4:])):
            _, cache = layers.gru_step(projection(p, feats), np.zeros((4, 1)), p[1])
            d_a, d_ua, _ = layers.gru_step_backward(d_h, cache, p[1])
            d_x += p[0].T @ d_a
            # with h_prev = 0 only the input side has a weight gradient
            expected += [d_a @ feats.T, np.zeros((12, 4)), d_a[:, 0]]
        assert np.allclose(d_feats, d_x, atol=1e-15)
        for g, g2 in zip(grads, expected):
            assert np.allclose(g, g2, atol=1e-15)

    def test_batch_matches_samples_run_alone(self):
        rng = make_rng(8)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        feats = [rng.standard_normal((3, n)) for n in (5, 1, 3, 5)]
        upstream = [rng.standard_normal((8, f.shape[1])) for f in feats]
        hs, d_feats, grads = bigru_and_grads(feats, fwd, bwd, upstream)
        summed = [np.zeros_like(g) for g in grads]
        for i, (f, g) in enumerate(zip(feats, upstream)):
            (h,), (d,), alone = bigru_and_grads([f], fwd, bwd, [g])
            assert np.allclose(hs[i], h, atol=1e-12, rtol=0)
            assert np.allclose(d_feats[i], d, atol=1e-12, rtol=0)
            for total, part in zip(summed, alone):
                total += part
        for g, total in zip(grads, summed):
            assert np.allclose(g, total, atol=1e-12, rtol=0)

    def test_permuting_samples_permutes_outputs(self):
        rng = make_rng(9)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        feats = [rng.standard_normal((3, n)) for n in (5, 1, 3, 5, 2)]
        upstream = [rng.standard_normal((8, f.shape[1])) for f in feats]
        hs, d_feats, grads = bigru_and_grads(feats, fwd, bwd, upstream)
        perm = [3, 1, 4, 0, 2]
        hs_p, d_feats_p, grads_p = bigru_and_grads([feats[i] for i in perm], fwd, bwd, [upstream[i] for i in perm])
        for j, i in enumerate(perm):
            assert np.allclose(hs_p[j], hs[i], atol=1e-12, rtol=0)
            assert np.allclose(d_feats_p[j], d_feats[i], atol=1e-12, rtol=0)
        for g, g_p in zip(grads, grads_p):
            assert np.allclose(g, g_p, atol=1e-12, rtol=0)


class TestMaxPool:
    def test_hand_max(self):
        h = np.array([[1.0, 0.0], [-2.0, 3.0]])
        pooled, _ = layers.max_pool(h, 2)
        assert np.array_equal(pooled[:, 0], [1.0, 3.0])

    def test_single_column(self):
        h = make_rng(0).standard_normal((4, 1))
        pooled, _ = layers.max_pool(h, 1)
        assert np.array_equal(pooled[:, 0], h[:, 0])

    def test_zero_valid_rejected(self):
        with pytest.raises(DegenerateInputError):
            layers.max_pool(np.ones((2, 3)), 0)

    def test_tie_breaks_to_lowest_index(self):
        h = np.array([[2.0, 2.0, 1.0]])
        _, argmax = layers.max_pool(h, 3)
        assert argmax[0] == 0

    def test_gradient_routes_to_argmax(self):
        h = np.array([[1.0, 5.0, 3.0], [9.0, 2.0, 2.0]])
        pooled, argmax = layers.max_pool(h, 3)
        d_h = layers.max_pool_backward(np.ones((2, 1)), argmax, h.shape)
        expected = np.zeros_like(h)
        expected[0, 1] = 1.0
        expected[1, 0] = 1.0
        assert np.array_equal(d_h, expected)

    def test_padding_invariance_bitwise(self):
        rng = make_rng(1)
        h = rng.standard_normal((5, 4))
        padded = np.concatenate([h, rng.standard_normal((5, 3))], axis=1)
        a, _ = layers.max_pool(h, 4)
        b, _ = layers.max_pool(padded, 4)
        assert np.array_equal(a, b)

    def test_dominates_every_valid_column(self):
        rng = make_rng(2)
        h = rng.standard_normal((6, 5))
        pooled, _ = layers.max_pool(h, 5)
        assert np.all(pooled[:, 0][:, None] >= h)
        assert np.all(np.any(pooled[:, 0][:, None] == h, axis=1))


    def test_ties_break_to_lowest_index_in_each_segment(self):
        h = np.array([[2.0, 2.0, 1.0, 5.0, 3.0, 3.0, 3.0, 9.0], [0.0, 1.0, 1.0, -1.0, 4.0, 2.0, 4.0, 9.0]])
        pooled, argmax = layers.max_pool(h, [3, 1, 3])
        assert np.array_equal(pooled, [[2.0, 5.0, 3.0], [1.0, -1.0, 4.0]])
        assert np.array_equal(argmax, [[0, 3, 4], [1, 3, 4]])
        d_h = layers.max_pool_backward(np.ones((2, 3)), argmax, h.shape)
        expected = np.zeros_like(h)
        expected[0, [0, 3, 4]] = 1.0
        expected[1, [1, 3, 4]] = 1.0
        assert np.array_equal(d_h, expected)

    def test_segments_match_each_segment_alone(self):
        rng = make_rng(3)
        h = rng.standard_normal((4, 9))
        pooled, argmax = layers.max_pool(h, [3, 1, 4])
        for s, (lo, n) in enumerate(((0, 3), (3, 1), (4, 4))):
            alone, arg = layers.max_pool(h[:, lo:], n)
            assert np.array_equal(pooled[:, s], alone[:, 0])
            assert np.array_equal(argmax[:, s], lo + arg[:, 0])

    @pytest.mark.parametrize("lengths", [5, [3, 1, 4]])
    def test_no_argmax_without_cache(self, lengths):
        h = make_rng(4).standard_normal((6, 9))
        h[:, 1] = h[:, 0]  # ties
        pooled, _ = layers.max_pool(h, lengths)
        bare, argmax = layers.max_pool(h, lengths, keep_cache=False)
        assert argmax is None
        assert pooled.shape == bare.shape and np.array_equal(pooled, bare)


class TestAttentivePool:
    def test_single_column(self):
        rng = make_rng(0)
        h = rng.standard_normal((4, 1))
        v = rng.standard_normal(4)
        pooled, alpha, _ = layers.attentive_pool(h, v, 1)
        assert np.array_equal(alpha, [1.0])
        assert np.allclose(pooled[:, 0], np.tanh(h[:, 0]), atol=1e-15)

    def test_identical_columns_split_evenly(self):
        rng = make_rng(1)
        col = rng.standard_normal(4)
        h = np.stack([col, col], axis=1)
        _, alpha, _ = layers.attentive_pool(h, rng.standard_normal(4), 2)
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-15)

    def test_weights_sum_to_one_with_exact_masked_zeros(self):
        rng = make_rng(2)
        h = rng.standard_normal((4, 6))
        _, alpha, _ = layers.attentive_pool(h, rng.standard_normal(4), 4)
        assert abs(alpha.sum() - 1.0) < 1e-9
        assert np.all(alpha >= 0)
        assert alpha[4] == 0.0 and alpha[5] == 0.0

    def test_zero_valid_rejected(self):
        with pytest.raises(DegenerateInputError):
            layers.attentive_pool(np.ones((2, 3)), np.ones(2), 0)

    def test_backward_vs_finite_diff(self):
        from cbgru.gradcheck import _check_attentive_pool

        assert _check_attentive_pool(make_rng(3)) < 1e-4

    def test_backward_missing_cache(self):
        with pytest.raises(StateError):
            layers.attentive_pool_backward(np.ones(2), None, np.ones((2, 3)), np.ones(2))

    def test_segment_weights_sum_to_one_and_match_alone(self):
        rng = make_rng(4)
        h = rng.standard_normal((4, 10))
        v = rng.standard_normal(4)
        pooled, alpha, _ = layers.attentive_pool(h, v, [3, 1, 4])
        assert alpha[8] == 0.0 and alpha[9] == 0.0
        for s, (lo, n) in enumerate(((0, 3), (3, 1), (4, 4))):
            assert abs(alpha[lo : lo + n].sum() - 1.0) < 1e-12
            alone, alpha_alone, _ = layers.attentive_pool(h[:, lo:], v, n)
            assert np.allclose(pooled[:, s], alone[:, 0], atol=1e-15, rtol=0)
            assert np.allclose(alpha[lo : lo + n], alpha_alone[:n], atol=1e-15, rtol=0)

    def test_equal_scores_split_evenly(self):
        _, alpha, _ = layers.attentive_pool(*scored_columns([0.0, 0.0]), 2)
        assert np.array_equal(alpha, [0.5, 0.5])

    def test_equal_large_scores_split_evenly(self):
        pooled, alpha, _ = layers.attentive_pool(*scored_columns([1000.0, 1000.0]), 2)
        assert np.all(np.isfinite(pooled))
        assert np.array_equal(alpha, [0.5, 0.5])

    def test_closed_form_two_columns(self):
        _, alpha, _ = layers.attentive_pool(*scored_columns([math.log(2.0), 0.0]), 2)
        assert alpha == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)

    def test_empty_segment_rejected(self):
        for lengths in ([2, 0], []):
            with pytest.raises(DegenerateInputError):
                layers.attentive_pool(*scored_columns([0.0, 0.0]), lengths)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=16),
        st.floats(min_value=-100, max_value=100),
        st.integers(min_value=0, max_value=15),
    )
    def test_segment_sums_and_shift_invariance(self, values, shift, cut):
        lengths = [cut, len(values) - cut] if 0 < cut < len(values) else [len(values)]
        _, alpha, _ = layers.attentive_pool(*scored_columns(values), lengths)
        for lo, n in zip(np.cumsum(lengths) - lengths, lengths):
            assert abs(alpha[lo : lo + n].sum() - 1.0) < 1e-12
        # exact zeros can appear when exp underflows at extreme score spreads
        assert np.all(alpha >= 0)
        _, shifted, _ = layers.attentive_pool(*scored_columns(values, shift), lengths)
        assert np.max(np.abs(shifted - alpha)) < 1e-12
