import json
import math
import os
import re
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cbgru import layers, model, optim
from cbgru.data import (
    ConfigError, InputError, PairRule, RelationSample, SequenceBatch, Vocab, batchify, encode, from_section,
)
from cbgru.model import FormatError, ModelConfig
from cbgru.tensor import StateError, make_rng

CLASSES = ["A", "B", "C", "D"]


def toy_vocab():
    return Vocab(
        tokens=[f"w{i}" for i in range(10)],
        clip=6,
        class_names=CLASSES,
        positive_classes=["A", "B", "C"],
    )


def toy_cfg(**overrides):
    base = dict(
        d_w=6, d_p=2, d_c=5, d_h=4, k=2, pooling="max", use_gru=True,
        dropout_p=0.0, l2_beta=0.0, seed=7, class_names=list(CLASSES),
    )
    base.update(overrides)
    return ModelConfig(**base)


def ragged_batch(rng, vocab, lengths):
    """A batch of samples with the given lengths."""
    highs = (vocab.n_tokens, vocab.n_positions, vocab.n_positions)
    ids = np.concatenate([np.stack([rng.integers(1, high, size=n) for high in highs]) for n in lengths], axis=1)
    labels = rng.integers(0, len(CLASSES), size=len(lengths))
    return SequenceBatch(ids, np.array(lengths, dtype=np.int64), labels)


def toy_samples(rng, lengths):
    """Relation samples over the toy vocabulary, one per length, with the
    targets at the first and last token."""
    samples = []
    for n in lengths:
        tokens = [f"w{i}" for i in rng.integers(0, 10, size=n)]
        label = CLASSES[rng.integers(len(CLASSES))]
        samples.append(RelationSample(tokens, 0, n - 1, label))
    return samples


def toy_batch(rng, vocab, n_samples=3, min_len=3, max_len=7):
    return ragged_batch(rng, vocab, rng.integers(min_len, max_len + 1, size=n_samples))


def zero_grads(params):
    """One zero gradient buffer per parameter array, for ``model.backward``."""
    return {name: np.zeros_like(value) for name, value in params.values.items()}


class TestConfig:
    def test_defaults_match_recipe(self):
        cfg = ModelConfig()
        assert (cfg.d_w, cfg.d_p, cfg.d_c, cfg.k, cfg.d_h) == (100, 10, 200, 3, 100)
        assert cfg.dropout_p == 0.5
        assert cfg.l2_beta == 0.0001

    def test_attentive_requires_gru(self):
        with pytest.raises(ConfigError):
            toy_cfg(pooling="attentive", use_gru=False).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"^model: unknown keys \['bogus'\]$"):
            from_section(ModelConfig, {"d_w": 5, "bogus": 1}, "model")

    def test_missing_keys_rejected(self):
        rule = {"types": ["a", "b"], "category": "X", "positive": ["P"]}
        with pytest.raises(ConfigError, match=r"^rule: missing keys \['negative'\]$"):
            from_section(PairRule, rule, "rule")
        assert from_section(PairRule, dict(rule, negative="N"), "rule") == PairRule(**rule, negative="N")

    @pytest.mark.parametrize(
        "field, name, shape",
        [("d_w", "embed.word", (10**20, 12)), ("d_c", "conv.W", (10**20, 20)), ("k", "conv.W", (5, 10 * 10**20))],
    )
    def test_too_large_to_address(self, field, name, shape):
        # the check runs before any array is allocated
        with pytest.raises(ConfigError) as exc:
            model.init_params(toy_cfg(**{field: 10**20}), 12, 13)
        assert str(exc.value) == f"model: {name} of shape {shape} is too large to address"

    def test_pooled_dim(self):
        assert toy_cfg(use_gru=True).pooled_dim == 8
        assert toy_cfg(use_gru=False).pooled_dim == 5


class TestForward:
    def test_uniform_classifier_loss_is_log_nclasses(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        params.values["cls.W"][:] = 0.0
        batch = toy_batch(make_rng(0), vocab)
        trace = model.forward(batch, cfg, params)
        assert trace.loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_probs_sum_to_one(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        trace = model.forward(toy_batch(make_rng(1), vocab), cfg, params)
        assert np.allclose(trace.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_near_perfect_prediction_near_zero_loss(self):
        cfg = toy_cfg(use_gru=False, k=1)
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(2), vocab, n_samples=1)
        batch.labels[:] = 0
        # saturate the gold logit
        params.values["cls.W"][:] = 0.0
        params.values["cls.W"][0, :] = 100.0
        trace = model.forward(batch, cfg, params)
        assert trace.loss < 1e-6

    def test_l2_decomposition(self):
        vocab = toy_vocab()
        cfg0 = toy_cfg(l2_beta=0.0)
        cfg1 = toy_cfg(l2_beta=0.0001)
        params = model.init_params(cfg0, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(3), vocab)
        l0 = model.forward(batch, cfg0, params).loss
        l1 = model.forward(batch, cfg1, params).loss
        assert l1 - l0 == pytest.approx(0.0001 * params.l2_sum(), abs=1e-10)

    def test_non_finite_weight_makes_the_loss_non_finite_at_zero_beta(self):
        # the weight sits in a column the batch never reads, so only the L2 term sees it
        cfg = toy_cfg(l2_beta=0.0)
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(3), vocab, n_samples=1, max_len=3)
        unread = min(set(range(2, vocab.n_tokens)) - set(batch.ids[0].tolist()))
        params.values["embed.word"][0, unread] = np.nan
        assert math.isnan(model.forward(batch, cfg, params).loss)

    def test_l2_sum_scalar_example(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        for name in params.names():
            params.values[name][:] = 0.0
        params.values["cls.W"].flat[0] = 2.0
        assert 0.0001 * params.l2_sum() == pytest.approx(0.0004, abs=1e-15)

    def test_dropout_off_is_pure(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(4), vocab)
        a = model.forward(batch, cfg, params)
        b = model.forward(batch, cfg, params)
        assert a.loss == b.loss
        assert np.array_equal(a.probs, b.probs)

    def test_dropout_p0_equals_off_bitwise(self):
        vocab = toy_vocab()
        cfg = toy_cfg(dropout_p=0.0)
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(5), vocab)
        on = model.forward(batch, cfg, params, rng=make_rng(0))
        off = model.forward(batch, cfg, params)
        assert on.loss == off.loss
        assert np.array_equal(on.probs, off.probs)

    def test_label_out_of_range(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(6), vocab)
        batch.labels[0] = 9
        with pytest.raises(IndexError):
            model.forward(batch, cfg, params)

    def test_padding_invariance_bitwise(self):
        # the same samples batched out of a corpus that holds only them, and
        # out of one with other samples, a short PAD-padded one among them,
        # before, between and after them
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        rng = make_rng(7)
        samples = toy_samples(rng, [4, 6, 3])
        others = toy_samples(rng, [1, 5, 2, 7])
        mixed = encode([others[0], samples[0], others[1], samples[1], others[2], samples[2], others[3]], vocab, cfg.k)
        # the length-1 sample is stored PAD-padded to the window k = 2
        assert np.diff(mixed.offsets).tolist() == [cfg.k, 4, 5, 6, 2, 3, 7] and cfg.k == 2
        (batch,), _ = batchify(encode(samples, vocab, cfg.k), [0, 1, 2], batch_size=3)
        (among,), _ = batchify(mixed, [1, 3, 5], batch_size=3)
        a = model.forward(batch, cfg, params)
        b = model.forward(among, cfg, params)
        assert a.loss == b.loss
        assert np.array_equal(a.probs, b.probs)
        grads_a, grads_b = zero_grads(params), zero_grads(params)
        model.backward(a, params, grads_a)
        model.backward(b, params, grads_b)
        for name in params.names():
            assert np.array_equal(grads_a[name], grads_b[name])


class TestBackward:
    def test_trace_single_use(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        trace = model.forward(toy_batch(make_rng(0), vocab), cfg, params)
        grads = zero_grads(params)
        model.backward(trace, params, grads)
        with pytest.raises(StateError):
            model.backward(trace, params, grads)

    def test_duplicated_samples_leave_gradients_unchanged(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(1), vocab, n_samples=2)
        doubled = SequenceBatch(
            ids=np.concatenate([batch.ids] * 2, axis=1),
            lengths=np.concatenate([batch.lengths] * 2),
            labels=np.concatenate([batch.labels] * 2),
        )
        single, twice = zero_grads(params), zero_grads(params)
        model.backward(model.forward(batch, cfg, params), params, single)
        model.backward(model.forward(doubled, cfg, params), params, twice)
        for name in params.names():
            assert np.allclose(single[name], twice[name], atol=1e-14)

    def test_l2_only_gradient_is_2_beta_theta(self):
        # uniform zero classifier on a batch whose data gradient vanishes
        # for the conv weights is hard to construct; check the L2 term in
        # isolation through the ParamSet helper instead
        cfg = toy_cfg(l2_beta=0.01)
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        grads = zero_grads(params)
        params.add_l2_grads(grads, cfg.l2_beta)
        for name in params.names():
            v = params.values[name]
            g = grads[name]
            if name in ("conv.b",) or name.startswith(("gru_f.b", "gru_b.b")):
                assert not g.any()
            elif name in ("embed.word", "embed.pos"):
                assert np.array_equal(g[:, 1:], 2 * cfg.l2_beta * v[:, 1:])
                assert not g[:, 0].any()
            else:
                assert np.array_equal(g, 2 * cfg.l2_beta * v)

    def test_unused_parameters_absent(self):
        vocab = toy_vocab()
        max_params = model.init_params(toy_cfg(pooling="max"), vocab.n_tokens, vocab.n_positions)
        assert "att.v" not in max_params.values
        cnn_params = model.init_params(toy_cfg(use_gru=False), vocab.n_tokens, vocab.n_positions)
        assert not any(n.startswith("gru") for n in cnn_params.names())

    def test_pad_columns_stay_zero(self):
        cfg = toy_cfg(l2_beta=0.001)
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        assert not params.values["embed.word"][:, 0].any()
        grads = zero_grads(params)
        model.backward(model.forward(toy_batch(make_rng(2), vocab), cfg, params), params, grads)
        assert not grads["embed.word"][:, 0].any()
        assert not grads["embed.pos"][:, 0].any()


VARIANTS = {
    "cbgru_max": dict(pooling="max", use_gru=True),
    "cbgru_att": dict(pooling="attentive", use_gru=True),
    "cnn": dict(pooling="max", use_gru=False),
}


def sample_alone(batch, i):
    lo = batch.lengths[:i].sum()
    return SequenceBatch(batch.ids[:, lo : lo + batch.lengths[i]], batch.lengths[i : i + 1], batch.labels[i : i + 1])


class TestBatchLayout:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_batch_matches_samples_run_alone(self, variant):
        # the sample of exactly k = 2 tokens pools over a single column
        cfg = toy_cfg(l2_beta=0.001, **VARIANTS[variant])
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = ragged_batch(make_rng(11), vocab, [5, 2, 7, 3])
        trace = model.forward(batch, cfg, params)
        grads, alone_grads, mean = zero_grads(params), zero_grads(params), zero_grads(params)
        model.backward(trace, params, grads)
        for i in range(batch.size):
            alone = model.forward(sample_alone(batch, i), cfg, params)
            assert np.allclose(trace.probs[i], alone.probs[0], atol=1e-12, rtol=0)
            model.backward(alone, params, alone_grads)
            for name in mean:
                mean[name] += alone_grads[name] / batch.size
        for name in grads:
            assert np.allclose(grads[name], mean[name], atol=1e-12, rtol=0), name

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_each_stage_runs_once_per_batch(self, variant, monkeypatch):
        cfg = toy_cfg(**VARIANTS[variant])
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        pool = "max_pool" if cfg.pooling == "max" else "attentive_pool"
        stages = ["embed_forward", "embed_backward", "conv_forward", "conv_backward", pool, f"{pool}_backward"]
        if cfg.use_gru:
            stages += ["bigru_forward", "bigru_backward"]
        calls = dict.fromkeys(stages, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in stages:
            monkeypatch.setattr(layers, name, counted(name, getattr(layers, name)))
        batch = ragged_batch(make_rng(12), vocab, [4, 2, 6, 3])
        model.backward(model.forward(batch, cfg, params), params, zero_grads(params))
        assert calls == dict.fromkeys(stages, 1)


class TestPredict:
    def test_uniform_ties_break_to_lowest_index(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        params.values["cls.W"][:] = 0.0
        preds, probs = model.predict(toy_batch(make_rng(0), vocab), cfg, params)
        assert np.all(preds == 0)
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_favored_class_wins(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        params.values["cls.W"][:] = 0.0
        params.values["cls.W"][2, :] = 50.0
        # pooled outputs of a GRU-max model are nonnegative only per-sample;
        # force a positive contribution through the sign trick
        batch = toy_batch(make_rng(1), vocab)
        preds, probs = model.predict(batch, cfg, params)
        assert np.all(preds == np.argmax(probs, axis=1))

    def test_deterministic_across_calls(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(2), vocab)
        a = model.predict(batch, cfg, params)
        b = model.predict(batch, cfg, params)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_scoring_skips_the_l2_sum(self, monkeypatch):
        cfg = toy_cfg(l2_beta=0.001)
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = toy_batch(make_rng(4), vocab)
        calls = []
        l2_sum = model.ParamSet.l2_sum
        monkeypatch.setattr(model.ParamSet, "l2_sum", lambda self: calls.append(1) or l2_sum(self))
        preds, probs = model.predict(batch, cfg, params)
        assert calls == []
        trace = model.forward(batch, cfg, params)
        assert len(calls) == 1
        assert np.array_equal(probs, trace.probs) and np.array_equal(preds, np.argmax(trace.probs, axis=1))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_probabilities_bitwise_those_of_forward(self, variant):
        # the one-token pair is shorter than k = 2 and scores PAD-padded
        cfg = toy_cfg(l2_beta=0.001, **VARIANTS[variant])
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        corpus = encode(toy_samples(make_rng(13), [5, 1, 7, 3]), vocab, cfg.k)
        (batch,), _ = batchify(corpus, range(4), batch_size=4)
        assert batch.lengths.tolist() == [5, 2, 7, 3]
        preds, probs = model.predict(batch, cfg, params)
        trace = model.forward(batch, replace(cfg, l2_beta=0.0), params)
        assert np.array_equal(probs, trace.probs)
        assert np.array_equal(preds, np.argmax(trace.probs, axis=1))

    @pytest.mark.parametrize("pooling", ["max", "attentive"])
    def test_peak_memory_well_below_forward(self, pooling):
        # a scoring batch at paper dims: predict keeps neither the conv
        # windows nor h nor a GRU cache per step, which forward keeps for
        # backward
        cfg = ModelConfig(pooling=pooling, dropout_p=0.0, l2_beta=0.0, seed=1, class_names=list(CLASSES))
        vocab = Vocab(tokens=[f"w{i}" for i in range(500)], clip=50, class_names=CLASSES, positive_classes=CLASSES[:3])
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        batch = ragged_batch(make_rng(14), vocab, make_rng(15).integers(3, 40, size=64))
        peaks = []
        for run in (model.forward, model.predict):
            tracemalloc.start()
            try:
                run(batch, cfg, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 0.6 * peaks[0], peaks


class TestCheckpoint:
    def _setup(self):
        cfg = toy_cfg()
        vocab = toy_vocab()
        params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
        return cfg, vocab, params

    def test_round_trip_bit_identical(self, tmp_path):
        # init_params, a save/load round trip and ParamSet.copy all follow
        # the parameter table, for every variant
        vocab = toy_vocab()
        batch = toy_batch(make_rng(3), vocab)
        variants = {"max": toy_cfg(), "att": toy_cfg(pooling="attentive"), "cnn": toy_cfg(use_gru=False)}
        for label, cfg in variants.items():
            specs = model.param_specs(cfg, vocab.n_tokens, vocab.n_positions)
            params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
            # nonzero biases, so that the L2 sum also checks the decay flags
            rng = make_rng(4)
            for value in params.values.values():
                value += rng.standard_normal(value.shape)
            for name in params.pad_frozen():
                params.values[name][:, 0] = 0.0
            path = str(tmp_path / f"{label}.bin")
            model.checkpoint_save(path, cfg, params, vocab)
            cfg2, loaded, vocab2 = model.checkpoint_load(path)
            assert cfg2 == cfg
            assert vocab2.class_names == vocab.class_names
            for other in (params, loaded, params.copy()):
                assert other.names() == [s.name for s in specs]
                assert [other.values[s.name].shape for s in specs] == [s.shape for s in specs]
                assert other.l2_sum() == params.l2_sum()
                for name in params.names():
                    assert np.array_equal(params.values[name], other.values[name])
            a = model.predict(batch, cfg, params)
            b = model.predict(batch, cfg2, loaded)
            assert np.array_equal(a[1], b[1])
            # a nonzero PAD-column gradient: only the loaded flags keep it frozen
            before = {n: v.copy() for n, v in loaded.values.items()}
            adam = optim.AdamState(loaded)
            for g in adam.grads.values():
                g.fill(1.0)
            loaded.add_l2_grads(adam.grads, cfg2.l2_beta)
            adam.step(loaded)
            assert loaded.pad_frozen() == ["embed.word", "embed.pos"]
            for name in loaded.pad_frozen():
                assert not loaded.values[name][:, 0].any()
                assert (loaded.values[name][:, 1:] != before[name][:, 1:]).all()
        assert len(model.param_specs(variants["att"], vocab.n_tokens, vocab.n_positions)) == 12

    def _saved(self, tmp_path):
        cfg, vocab, params = self._setup()
        path = str(tmp_path / "model.bin")
        model.checkpoint_save(path, cfg, params, vocab)
        return path, Path(path).read_bytes()

    def test_mismatched_dims_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        header_len = int.from_bytes(raw[len(model.CHECKPOINT_MAGIC) : len(model.CHECKPOINT_MAGIC) + 8], "little")
        start = len(model.CHECKPOINT_MAGIC) + 8
        for section, key, value, message in (
            ("config", "d_h", 99, "parameter shapes"),
            (None, "format_version", 1, "unsupported format version 1"),
            ("config", "class_names", 3, r"invalid manifest \(config: class_names must be a list of strings"),
            ("config", "class_names", CLASSES[::-1], "class names differ from the vocabulary's"),
        ):
            manifest = json.loads(raw[start : start + header_len])
            (manifest[section] if section else manifest)[key] = value
            blob = json.dumps(manifest, sort_keys=True).encode()
            with open(path, "wb") as fh:
                fh.write(model.CHECKPOINT_MAGIC)
                fh.write(len(blob).to_bytes(8, "little"))
                fh.write(blob)
                fh.write(raw[start + header_len :])
            with pytest.raises(FormatError, match=message):
                model.checkpoint_load(path)

    def test_invalid_vocabulary_rejected(self, tmp_path):
        # each manifest is rewritten with a valid CRC, so only the vocabulary check can reject it
        path, raw = self._saved(tmp_path)
        start = len(model.CHECKPOINT_MAGIC) + 8
        header_len = int.from_bytes(raw[len(model.CHECKPOINT_MAGIC) : start], "little")
        params = raw[start + header_len : -4]
        # a value of ... deletes the key
        for key, value, message in (
            ("clip", 50.5, "clip must be an integer, got 50.5"),
            ("clip", True, "clip must be an integer, got True"),
            ("clip", -1, "clip must be >= 0, got -1"),
            ("blind", None, "blind must be 'all' or 'targets', got None"),
            ("tokens", "w0", "tokens must be a list of strings"),
            ("class_names", CLASSES[:3] + [4], "class_names must be a list of strings"),
            ("positive_classes", None, "positive_classes must be a list of strings"),
            ("itos", ["<pad>", "<unk>"], "unknown keys ['itos']"),
            ("tokens", ..., "missing keys ['tokens']"),
        ):
            manifest = json.loads(raw[start : start + header_len])
            manifest["vocab"][key] = value
            if value is ...:
                del manifest["vocab"][key]
            blob = json.dumps(manifest, sort_keys=True).encode()
            head = model.CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little")
            crc = zlib.crc32(params, zlib.crc32(blob, zlib.crc32(head)))
            with open(path, "wb") as fh:
                fh.write(head + blob + params + crc.to_bytes(4, "little"))
            with pytest.raises(FormatError, match=rf"^{re.escape(path)}: invalid manifest \(vocab: {re.escape(message)}\)$"):
                model.checkpoint_load(path)

    def test_manifest_bytes_pinned(self, tmp_path):
        # the manifest of a fixed config and vocabulary, as the format has
        # always written it: the stored fields, keys sorted, in one line
        classes = ["A", "B", "N"]
        cfg = ModelConfig(d_w=2, d_p=1, d_c=2, d_h=1, k=2, pooling="attentive", seed=5, class_names=classes)
        vocab = Vocab(tokens=["w0", "w1"], clip=3, class_names=classes, positive_classes=["A", "B"], blind="targets")
        path = str(tmp_path / "pinned.bin")
        model.checkpoint_save(path, cfg, model.init_params(cfg, vocab.n_tokens, vocab.n_positions), vocab)
        raw = Path(path).read_bytes()
        start = len(model.CHECKPOINT_MAGIC) + 8
        manifest = raw[start : start + int.from_bytes(raw[len(model.CHECKPOINT_MAGIC) : start], "little")]
        assert manifest == (
            b'{"config": {"class_names": ["A", "B", "N"], "d_c": 2, "d_h": 1, "d_p": 1, "d_w": 2, '
            b'"dropout_p": 0.5, "k": 2, "l2_beta": 0.0001, "pooling": "attentive", "seed": 5, "use_gru": true}, '
            b'"format_version": 2, "params": [{"name": "embed.word", "shape": [2, 4]}, '
            b'{"name": "embed.pos", "shape": [1, 8]}, '
            b'{"name": "conv.W", "shape": [2, 8]}, {"name": "conv.b", "shape": [2]}, '
            b'{"name": "gru_f.W", "shape": [3, 2]}, {"name": "gru_f.U", "shape": [3, 1]}, {"name": "gru_f.b", "shape": [3]}, '
            b'{"name": "gru_b.W", "shape": [3, 2]}, {"name": "gru_b.U", "shape": [3, 1]}, {"name": "gru_b.b", "shape": [3]}, '
            b'{"name": "att.v", "shape": [2]}, {"name": "cls.W", "shape": [3, 2]}], '
            b'"vocab": {"blind": "targets", "class_names": ["A", "B", "N"], "clip": 3, '
            b'"positive_classes": ["A", "B"], "tokens": ["w0", "w1"]}}'
        )

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        with open(path, "wb") as fh:
            fh.write(raw + b"\0")
        with pytest.raises(FormatError, match="1 bytes past the end"):
            model.checkpoint_load(path)

    def test_huge_manifest_length_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        start = len(model.CHECKPOINT_MAGIC)
        for length in (2**45, 2**64 - 1):
            with open(path, "wb") as fh:
                fh.write(raw[:start] + length.to_bytes(8, "little") + raw[start + 8 :])
            with pytest.raises(FormatError, match="exceeds the file size"):
                model.checkpoint_load(path)

    def test_flipped_parameter_byte_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        # lowest mantissa byte of the last cls.W entry, just before the CRC
        corrupt = bytearray(raw)
        corrupt[-12] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(corrupt))
        with pytest.raises(FormatError, match="checksum"):
            model.checkpoint_load(path)

    def test_truncated_file_rejected(self, tmp_path):
        cfg, vocab, params = self._setup()
        path = str(tmp_path / "model.bin")
        model.checkpoint_save(path, cfg, params, vocab)
        raw = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            model.checkpoint_load(path)

    def test_save_load_save_byte_identical(self, tmp_path):
        path, raw = self._saved(tmp_path)
        cfg, params, vocab = model.checkpoint_load(path)
        again = str(tmp_path / "again.bin")
        model.checkpoint_save(again, cfg, params, vocab)
        assert Path(again).read_bytes() == raw

    def test_truncated_inside_a_parameter_block_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        start = len(model.CHECKPOINT_MAGIC) + 8
        blocks = start + int.from_bytes(raw[len(model.CHECKPOINT_MAGIC) : start], "little")
        # five values and three bytes into the word table
        with open(path, "wb") as fh:
            fh.write(raw[: blocks + 8 * 5 + 3])
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: truncated"):
            model.checkpoint_load(path)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was taken: the size check
        # passes, and the read into the parameter arrays comes up short
        path, raw = self._saved(tmp_path)
        with open(path, "wb") as fh:
            fh.write(raw[:-100])
        monkeypatch.setattr(model.os, "fstat", lambda fd: os.stat_result((0,) * 6 + (len(raw),) + (0,) * 3))
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: truncated while reading the parameters"):
            model.checkpoint_load(path)

    def test_scored_sets_hold_no_gradient_buffers(self, tmp_path):
        # a word table that outweighs the vocabulary's strings, so that a
        # second array of its size shows in the traced memory
        vocab = Vocab(tokens=[f"w{i}" for i in range(1000)], clip=6, class_names=CLASSES, positive_classes=CLASSES[:3])
        cfg = toy_cfg(d_w=200)
        path = str(tmp_path / "model.bin")
        model.checkpoint_save(path, cfg, model.init_params(cfg, vocab.n_tokens, vocab.n_positions), vocab)
        tracemalloc.start()
        try:
            params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
            fresh = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, loaded, _ = model.checkpoint_load(path)
            load_held, load_peak = tracemalloc.get_traced_memory()
            copied = loaded.copy()
            copy_held = tracemalloc.get_traced_memory()[0] - load_held
        finally:
            tracemalloc.stop()
        values = sum(v.nbytes for v in params.values.values())
        assert values <= fresh < 1.1 * values
        # the loaded values and the vocabulary, and at no time a copy of a
        # parameter block
        assert values < load_held - fresh < 1.3 * values
        assert load_peak - fresh < 1.3 * values
        assert values <= copy_held < 1.1 * values

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a checkpoint at all")
        with pytest.raises(FormatError):
            model.checkpoint_load(path)


def test_empty_batch_rejected():
    cfg = toy_cfg()
    vocab = toy_vocab()
    params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
    empty = SequenceBatch(
        ids=np.zeros((3, 0), dtype=np.int64),
        lengths=np.zeros(0, dtype=np.int64),
        labels=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(InputError):
        model.forward(empty, cfg, params)
