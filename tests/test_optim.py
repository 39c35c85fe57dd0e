import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cbgru import cli, model, optim
from cbgru.data import ConfigError, InputError, build_vocab, corpus_samples, encode, PairSchema
from cbgru.model import ModelConfig, ParamSet, ParamSpec
from cbgru.tensor import NumericError, make_rng

from synthdata import SIMPLE_SCHEMA, make_separable_corpus
from cbgru.data import AnnotatedSentence, Concept, Relation


def scalar_params(value=0.0):
    params = ParamSet([ParamSpec("theta", (1,))])
    params.values["theta"][0] = value
    return params


class TestAdam:
    def test_first_step_magnitude(self):
        params = scalar_params(0.0)
        adam = optim.AdamState(params, lr=0.01)
        adam.grads["theta"][:] = 1.0
        adam.step(params)
        # bias-corrected first step is -lr * 1 / (1 + eps)
        assert params.values["theta"][0] == pytest.approx(-0.01, abs=1e-9)

    def test_zero_gradient_no_move(self):
        params = scalar_params(3.0)
        adam = optim.AdamState(params, lr=0.01)
        adam.step(params)
        assert params.values["theta"][0] == 3.0

    def test_identical_histories_identical_updates(self):
        params = ParamSet([ParamSpec("a", (1,)), ParamSpec("b", (1,))])
        params.values["a"][0] = params.values["b"][0] = 1.0
        adam = optim.AdamState(params, lr=0.01)
        rng = make_rng(0)
        for _ in range(10):
            g = rng.standard_normal()
            adam.grads["a"][:] = g
            adam.grads["b"][:] = g
            adam.step(params)
        assert params.values["a"][0] == params.values["b"][0]

    def test_sign_flip_negates_updates(self):
        rng = make_rng(1)
        grads = [rng.standard_normal() for _ in range(20)]
        pos = scalar_params(0.0)
        neg = scalar_params(0.0)
        adam_pos = optim.AdamState(pos, lr=0.01)
        adam_neg = optim.AdamState(neg, lr=0.01)
        for g in grads:
            adam_pos.grads["theta"][:] = g
            adam_pos.step(pos)
            adam_neg.grads["theta"][:] = -g
            adam_neg.step(neg)
        assert pos.values["theta"][0] == pytest.approx(-neg.values["theta"][0], abs=1e-15)

    def test_quadratic_convergence(self):
        params = scalar_params(1.0)
        adam = optim.AdamState(params, lr=0.01)
        for step in range(500):
            adam.grads["theta"][:] = 2.0 * params.values["theta"]
            adam.step(params)
            if abs(params.values["theta"][0]) < 0.1:
                break
        assert abs(params.values["theta"][0]) < 0.1


def slab_params(cols=model.SLAB_VALUES // 4 + 1, rows=None):
    """A PAD-frozen table spanning several slabs, plus a bias and a small
    weight. By default the table holds more than two slabs and its size is
    not a multiple of ``SLAB_VALUES``, so its last slab is short."""
    rows = rows or 3 * max(1, model.SLAB_VALUES // cols) + 1
    specs = [ParamSpec("table", (rows, cols), pad_frozen=True), ParamSpec("bias", (7,), decay=False), ParamSpec("W", (5, 4))]
    params = ParamSet(specs)
    rng = make_rng(0)
    for value in params.values.values():
        value[...] = rng.standard_normal(value.shape)
    params.values["table"][:, 0] = 0.0
    return params


def whole_array_step(params, grads, m, v, step, lr, beta):
    """The L2 gradient and the Adam update on whole arrays, as written
    before the slab pass: the reference the slab pass must match bitwise.
    Returns the global norm of the gradient it applied."""
    for s in params.specs:
        if s.decay:
            g = 2.0 * beta * params.values[s.name]
            if s.pad_frozen:
                g[:, 0] = 0.0
            grads[s.name] += g
        if s.pad_frozen:
            grads[s.name][:, 0] = 0.0
    norm = math.sqrt(sum(np.sum(g * g) for g in grads.values()))
    b1t = 1.0 - optim.BETA1**step
    b2t = 1.0 - optim.BETA2**step
    for name, value in params.values.items():
        g = grads[name]
        m[name] *= optim.BETA1
        m[name] += (1.0 - optim.BETA1) * g
        v[name] *= optim.BETA2
        v[name] += (1.0 - optim.BETA2) * g * g
        value -= lr * (m[name] / b1t) / (np.sqrt(v[name] / b2t) + optim.EPS)
    for name in params.pad_frozen():
        params.values[name][:, 0] = 0.0
    return norm


class TestSlabPass:
    @pytest.mark.parametrize(
        "cols", [model.SLAB_VALUES // 4 + 1, model.SLAB_VALUES + 5], ids=["short_last_slab", "row_wider_than_slab"]
    )
    def test_bitwise_equal_to_whole_array_reference(self, cols):
        params, ref = slab_params(cols), slab_params(cols)
        assert len(list(model.slabs(params.values["table"].size))) > 2
        adam = optim.AdamState(params, lr=0.01)
        grads, m, v = ({n: np.zeros_like(x) for n, x in ref.values.items()} for _ in range(3))
        rng = make_rng(1)
        for step in range(1, 5):
            for name in params.names():
                adam.grads[name][...] = grads[name][...] = rng.standard_normal(grads[name].shape)
            params.add_l2_grads(adam.grads, 0.01)
            adam.step(params)
            norm = whole_array_step(ref, grads, m, v, step, 0.01, 0.01)
            for name in params.names():
                assert params.values[name].tobytes() == ref.values[name].tobytes(), (step, name)
                assert adam.grads[name].tobytes() == grads[name].tobytes(), (step, name)
                assert adam.m[name].tobytes() == m[name].tobytes(), (step, name)
                assert adam.v[name].tobytes() == v[name].tobytes(), (step, name)
            assert not adam.grads["table"][:, 0].any() and not params.values["table"][:, 0].any()
            assert adam.grad_norms[-1] == pytest.approx(norm, rel=1e-12)
        assert len(adam.grad_norms) == 4

    def test_pad_gradient_zeroed_without_l2(self):
        params = slab_params()
        grads = {n: np.ones_like(x) for n, x in params.values.items()}
        params.add_l2_grads(grads, 0.0)
        assert grads["table"][:, 1:].all()
        assert not grads["table"][:, 0].any()

    def test_rows_wider_than_a_slab_are_cut(self):
        # rows of four slabs and a bit: every slab, and so every temporary
        # of a pass, stays within SLAB_VALUES values
        params = slab_params(4 * model.SLAB_VALUES + 3, rows=3)
        table = params.values["table"]
        cuts = list(model.slabs(table.size))
        assert max(len(range(table.size)[sl]) for sl in cuts) == model.SLAB_VALUES
        assert np.concatenate([table.reshape(-1)[sl] for sl in cuts]).tobytes() == table.tobytes()
        adam = optim.AdamState(params)
        for g in adam.grads.values():
            g[...] = 1e-3
        slab_bytes = 8 * model.SLAB_VALUES
        tracemalloc.start()
        try:
            params.add_l2_grads(adam.grads, 0.01)
            l2_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            adam.step(params)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert l2_peak < 2 * slab_bytes and step_peak < 4 * slab_bytes, (l2_peak, step_peak)

    def test_temporaries_stay_below_a_tenth_of_the_table(self):
        # a table of 40 slabs; a step keeps at most a few slab-sized
        # temporaries, and the L2 sum squares no copy of the table
        params = slab_params(model.SLAB_VALUES // 8, rows=40 * 8)
        adam = optim.AdamState(params)
        table_bytes = params.values["table"].nbytes
        assert table_bytes > 8e6
        for g in adam.grads.values():
            g[...] = 1e-3
        # the PAD column and the bias stay out of the sum
        expected = np.sum(params.values["table"][:, 1:] ** 2) + np.sum(params.values["W"] ** 2)
        tracemalloc.start()
        try:
            total = params.l2_sum()
            sum_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            params.add_l2_grads(adam.grads, 0.01)
            l2_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            adam.step(params)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum_peak < table_bytes / 10
        assert l2_peak < table_bytes / 10
        assert step_peak < table_bytes / 10
        assert total == pytest.approx(expected, rel=1e-13)


def _samples(n_samples=24, seed=0):
    schema = PairSchema.from_dict(SIMPLE_SCHEMA)
    sentences = []
    for obj in make_separable_corpus(n_samples=n_samples, seed=seed):
        sentences.append(
            AnnotatedSentence(
                tokens=obj["tokens"],
                concepts=[Concept(**c) for c in obj["concepts"]],
                relations=[Relation(**r) for r in obj["relations"]],
                sent_id=obj["id"],
            )
        )
    return corpus_samples(sentences, schema), schema


def _training_setup(n_samples=24, seed=0):
    """An encoded training corpus, its vocabulary, a small config and
    initial parameters."""
    samples, schema = _samples(n_samples, seed)
    vocab = build_vocab(samples, schema, clip=10)
    cfg = ModelConfig(
        d_w=6, d_p=2, d_c=5, d_h=4, k=2, dropout_p=0.0, l2_beta=0.0,
        seed=3, class_names=schema.class_names,
    )
    params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
    return encode(samples, vocab, cfg.k), vocab, cfg, params


class TestTrainEpoch:
    def test_single_update_when_batch_covers_dataset(self):
        corpus, vocab, cfg, params = _training_setup()
        adam = optim.AdamState(params)
        schedule = optim.TrainSchedule(batch_size=len(corpus) + 5, shuffle_seed=1)
        optim.train_epoch(corpus, cfg, params, adam, schedule, epoch=1)
        assert adam.step_count == 1

    def test_deterministic_loss_sequences(self):
        losses = []
        for _ in range(2):
            corpus, vocab, cfg, params = _training_setup()
            adam = optim.AdamState(params)
            schedule = optim.TrainSchedule(batch_size=8, shuffle_seed=5)
            losses.append([
                optim.train_epoch(corpus, cfg, params, adam, schedule, epoch)
                for epoch in range(1, 4)
            ])
        assert losses[0] == losses[1]

    def test_loss_decreases_on_separable_data(self):
        corpus, vocab, cfg, params = _training_setup(n_samples=40)
        adam = optim.AdamState(params, lr=0.01)
        schedule = optim.TrainSchedule(batch_size=8, shuffle_seed=2)
        first = optim.train_epoch(corpus, cfg, params, adam, schedule, 1)
        last = first
        for epoch in range(2, 51):
            last = optim.train_epoch(corpus, cfg, params, adam, schedule, epoch)
        assert last < first

    def test_empty_dataset_rejected(self):
        corpus, vocab, cfg, params = _training_setup()
        adam = optim.AdamState(params)
        with pytest.raises(InputError):
            optim.train_epoch(encode([], vocab, cfg.k), cfg, params, adam, optim.TrainSchedule(), 1)

    def test_non_finite_loss_names_epoch_and_batch(self):
        corpus, vocab, cfg, params = _training_setup()
        params.values["conv.b"][0] = np.nan
        adam = optim.AdamState(params)
        schedule = optim.TrainSchedule(batch_size=8, shuffle_seed=1)
        with pytest.raises(NumericError, match=r"epoch 2: loss is nan on the batch of samples syn\d+:c1:c2"):
            optim.train_epoch(corpus, cfg, params, adam, schedule, 2)
        assert adam.step_count == 0

    def test_shuffle_is_permutation(self):
        # different epochs consume every sample exactly once: the number of
        # optimizer steps equals ceil(n / batch_size) regardless of shuffle
        corpus, vocab, cfg, params = _training_setup()
        adam = optim.AdamState(params)
        schedule = optim.TrainSchedule(batch_size=7, shuffle_seed=3)
        optim.train_epoch(corpus, cfg, params, adam, schedule, 1)
        assert adam.step_count == -(-len(corpus) // 7)


class TestSchedule:
    def test_patience_below_one_rejected(self):
        samples, schema = _samples()
        for patience in (0, -3):
            schedule = optim.TrainSchedule(max_epochs=5, patience=patience)
            with pytest.raises(ConfigError, match="patience"):
                schedule.validate()
            with pytest.raises(ConfigError, match="patience"):
                cli.train_model(cli.RunConfig(train=schedule), samples, schema)
        optim.TrainSchedule(max_epochs=5, patience=1).validate()


def _train_with_dev_scores(monkeypatch, dev_scores, max_epochs, patience):
    """``cli.train_model`` on a small model whose epochs read ``dev_scores``
    as their dev micro-F1; returns its parameters, meta and log rows."""
    samples, schema = _samples(n_samples=16)
    scores = iter(dev_scores)
    monkeypatch.setattr(cli.evaluation, "micro_f1", lambda records, positive: (0.0, 0.0, next(scores)))
    cfg = cli.RunConfig(
        model=ModelConfig(d_w=6, d_p=2, d_c=5, d_h=4, k=2, seed=3),
        train=optim.TrainSchedule(max_epochs=max_epochs, patience=patience, batch_size=8, shuffle_seed=1),
    )
    log_rows = []
    _, params, _, meta = cli.train_model(cfg, samples[:12], schema, dev_samples=samples[12:], log_rows=log_rows)
    # the best epoch's parameters are those of an unpatched run that stops there
    monkeypatch.undo()
    best_cfg = replace(cfg, train=replace(cfg.train, max_epochs=meta["best_epoch"], patience=1))
    _, best, _, _ = cli.train_model(best_cfg, samples[:12], schema)
    assert params.values.keys() == best.values.keys()
    assert all(np.array_equal(params.values[n], best.values[n]) for n in params.values)
    return meta, log_rows


class TestEarlyStop:
    """The stopping rule of ``cli.train_model``'s epoch loop."""

    def test_improving_scores_no_stop(self, monkeypatch):
        meta, log_rows = _train_with_dev_scores(monkeypatch, [1.0, 2.0, 3.0], max_epochs=3, patience=2)
        assert (meta["epochs_run"], meta["best_epoch"], len(log_rows)) == (3, 3, 3)

    def test_plateau_triggers_stop(self, monkeypatch):
        meta, log_rows = _train_with_dev_scores(monkeypatch, [5.0, 4.0, 4.0, 4.0, 6.0], max_epochs=5, patience=3)
        assert (meta["epochs_run"], meta["best_epoch"], len(log_rows)) == (4, 1, 4)

    def test_monotone_decreasing_patience_one(self, monkeypatch):
        meta, log_rows = _train_with_dev_scores(monkeypatch, [5.0, 4.0, 6.0], max_epochs=3, patience=1)
        assert (meta["epochs_run"], meta["best_epoch"], len(log_rows)) == (2, 1, 2)

    def test_tie_picks_earliest(self, monkeypatch):
        meta, log_rows = _train_with_dev_scores(monkeypatch, [2.0, 2.0, 1.0, 3.0], max_epochs=4, patience=2)
        assert (meta["epochs_run"], meta["best_epoch"], len(log_rows)) == (3, 1, 3)

    def test_unread_epochs_are_not_scored(self, monkeypatch):
        # without a dev set or a log, as in every cv fold, nothing reads an epoch's score
        samples, schema = _samples(n_samples=16)
        calls = []
        score_corpus = cli._score_corpus
        monkeypatch.setattr(cli, "_score_corpus", lambda *args: calls.append(1) or score_corpus(*args))
        cfg = cli.RunConfig(
            model=ModelConfig(d_w=6, d_p=2, d_c=5, d_h=4, k=2, seed=3),
            train=optim.TrainSchedule(max_epochs=3, patience=1, batch_size=8),
        )
        _, _, _, meta = cli.train_model(cfg, samples, schema)
        assert (meta["epochs_run"], meta["best_epoch"], len(calls)) == (3, 3, 0)
        cli.train_model(cfg, samples, schema, log_rows=[])
        assert len(calls) == 3
