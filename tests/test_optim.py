import numpy as np
import pytest

from cbgru import cli, model, optim
from cbgru.data import ConfigError, InputError, build_vocab, corpus_samples, encode, PairSchema
from cbgru.model import ModelConfig, ParamSet, ParamSpec
from cbgru.tensor import DimensionError, NumericError, make_rng

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
        params.grads["theta"][:] = 1.0
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
            params.grads["a"][:] = g
            params.grads["b"][:] = g
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
            pos.grads["theta"][:] = g
            adam_pos.step(pos)
            neg.grads["theta"][:] = -g
            adam_neg.step(neg)
        assert pos.values["theta"][0] == pytest.approx(-neg.values["theta"][0], abs=1e-15)

    def test_quadratic_convergence(self):
        params = scalar_params(1.0)
        adam = optim.AdamState(params, lr=0.01)
        for step in range(500):
            params.grads["theta"][:] = 2.0 * params.values["theta"]
            adam.step(params)
            if abs(params.values["theta"][0]) < 0.1:
                break
        assert abs(params.values["theta"][0]) < 0.1

    def test_shape_mismatch(self):
        params = scalar_params(0.0)
        adam = optim.AdamState(params)
        params.grads["theta"] = np.zeros(3)
        with pytest.raises(DimensionError):
            adam.step(params)


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
    return corpus_samples(sentences, schema, clip=10), schema


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


class TestEarlyStop:
    def test_improving_scores_no_stop(self):
        stop, best = optim.early_stop([1.0, 2.0, 3.0], patience=2)
        assert not stop and best == 3

    def test_plateau_triggers_stop(self):
        stop, best = optim.early_stop([5.0, 4.0, 4.0, 4.0], patience=3)
        assert stop and best == 1

    def test_monotone_decreasing_patience_one(self):
        stop, best = optim.early_stop([5.0, 4.0], patience=1)
        assert stop and best == 1

    def test_tie_picks_earliest(self):
        _, best = optim.early_stop([2.0, 2.0, 1.0], patience=10)
        assert best == 1

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            optim.early_stop([], patience=1)
