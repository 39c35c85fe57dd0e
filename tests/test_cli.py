import copy
import errno
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cbgru import cli, data, gradcheck, layers, model, optim
from cbgru.cli import RunConfig, _load_training_data, load_run_config, main, train_model
from cbgru.data import ConfigError, RelationSample, Vocab

from synthdata import SIMPLE_SCHEMA, make_separable_corpus, write_jsonl, write_schema


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    schema = tmp_path / "schema.json"
    write_jsonl(str(corpus), make_separable_corpus(n_samples=40, seed=0))
    write_schema(str(schema), SIMPLE_SCHEMA)
    config = {
        "corpus": str(corpus),
        "schema": str(schema),
        "out_dir": str(tmp_path / "out"),
        "model": {"d_w": 8, "d_p": 3, "d_c": 6, "d_h": 5, "k": 2, "dropout_p": 0.2, "seed": 1},
        "train": {"max_epochs": 3, "batch_size": 16, "shuffle_seed": 1, "patience": 2},
        "data": {"clip": 20},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path, config


def _short_sentences(n):
    """Sentences whose one pair blinds to 2 tokens, shorter than k=3."""
    concepts = [
        {"id": "c1", "start": 0, "end": 0, "type": "treatment"},
        {"id": "c2", "start": 1, "end": 1, "type": "problem"},
    ]
    relations = [{"a": "c1", "b": "c2", "label": "REL_A"}]
    return [{"id": f"short{i}", "tokens": ["w0", "w1"], "concepts": concepts, "relations": relations} for i in range(n)]


class TestTrainCommand:
    def test_train_writes_artifacts(self, workspace):
        tmp_path, config_path, config = workspace
        assert main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.bin").exists()
        log = (out / "train_log.tsv").read_text().strip().split("\n")
        # without a dev set each epoch scores the training set
        assert log[0] == "epoch\tloss\ttrain_f1"
        assert len(log) == 1 + config["train"]["max_epochs"]
        meta = json.loads((out / "train_meta.json").read_text())
        assert meta["skipped_short"] == 0 and meta["dev_used"] is False

        config["train"]["dev_fraction"] = 0.5
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "dev")]) == 0
        assert (tmp_path / "dev" / "train_log.tsv").read_text().split("\n")[0] == "epoch\tloss\tdev_f1"

    def test_missing_corpus_exit_2(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        config["corpus"] = str(tmp_path / "nope.jsonl")
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_same_seed_identical_logs(self, workspace):
        tmp_path, config_path, _ = workspace
        main(["train", "--config", str(config_path), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(config_path), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "train_log.tsv").read_bytes() == (tmp_path / "b" / "train_log.tsv").read_bytes()

    def test_timings_kept_out_of_compared_artifacts(self, workspace):
        tmp_path, config_path, config = workspace
        for run in ("a", "b"):
            assert main(["train", "--config", str(config_path), "--out", str(tmp_path / run)]) == 0
        for name in ("train_log.tsv", "checkpoint.bin", "train_meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        epochs = json.loads((tmp_path / "a" / "timings.json").read_text())["epochs"]
        assert [e["epoch"] for e in epochs] == list(range(1, config["train"]["max_epochs"] + 1))
        assert all(e["wall_s"] >= e["train_s"] > 0 and e["samples_per_s"] > 0 and e["grad_norm"] > 0 for e in epochs)

    def test_label_outside_its_rule_exit_2(self, workspace, capsys):
        _, config_path, config = workspace
        schema = copy.deepcopy(SIMPLE_SCHEMA)
        schema["pairs"][0]["positive"] = ["REL_A"]
        write_schema(config["schema"], schema)
        sentences = _short_sentences(2)
        sentences[1]["relations"] = [{"a": "c2", "b": "c1", "label": "TYPO"}]
        write_jsonl(config["corpus"], sentences)
        assert main(["train", "--config", str(config_path)]) == 2
        assert "short1: concept pair (c1, c2) has label 'TYPO'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["corpus", "dev_corpus"])
    def test_annotation_error_names_the_file(self, workspace, capsys, key):
        # the train and the dev corpus hold the same sentence ids, so only the path tells them apart
        tmp_path, config_path, config = workspace
        bad = tmp_path / f"bad_{key}.jsonl"
        sentences = _short_sentences(2)
        sentences[1]["relations"] = [{"a": "c2", "b": "c1", "label": "REL_A"}, {"a": "c1", "b": "c2", "label": "REL_B"}]
        write_jsonl(str(bad), sentences)
        write_jsonl(config["corpus"], _short_sentences(2) + make_separable_corpus(n_samples=10, seed=0))
        config[key] = str(bad)
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: short1: concept pair (c1, c2) carries two relations (REL_A, REL_B)\n"

    @pytest.mark.parametrize("ids", [("s2", None), ("x", "x")], ids=["assigned", "explicit"])
    def test_repeated_sentence_id_exit_2(self, workspace, capsys, ids):
        # a line without an id gets s<line number>, which may repeat an explicit id
        _, config_path, config = workspace
        sentences = _short_sentences(2)
        for sentence, sent_id in zip(sentences, ids):
            if sent_id is None:
                del sentence["id"]
            else:
                sentence["id"] = sent_id
        write_jsonl(config["corpus"], sentences)
        assert main(["train", "--config", str(config_path)]) == 2
        repeated = ids[0]
        assert capsys.readouterr().err == f"error: {config['corpus']}:2: sentence id '{repeated}' is already the id of line 1\n"

    def test_colon_in_concept_id_exit_2(self, workspace, capsys):
        # "a:b" with concept c1 and "a" with concept b:c1 would both give the sample id a:b:c1:c2
        _, config_path, config = workspace
        sentences = [copy.deepcopy(sentence) for sentence in _short_sentences(2)]
        sentences[0]["id"], sentences[1]["id"] = "a:b", "a"
        sentences[1]["concepts"][0]["id"] = sentences[1]["relations"][0]["a"] = "b:c1"
        write_jsonl(config["corpus"], sentences)
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {config['corpus']}:2: concept 'id' must not hold ':', got 'b:c1'\n"

    @pytest.mark.parametrize(
        "rules, message",
        [
            (
                [{"positive": ["REL_A", "REL_B", "REL_C", f"REL{c}D"]}],
                f"pair rule 0: label must not hold a tab or line break, got {f'REL{c}D'!r}",
            )
            for c in "\t\r\n"
        ]
        + [
            (
                [{"positive": ["REL_A", "REL_B", "REL_C", "NONE"]}],
                "pair rule 0: label 'NONE' is positive in pair rule 0 and negative in pair rule 0",
            ),
            (
                [{}, {"types": ["problem", "test"], "positive": ["REL_D"], "negative": "REL_A"}],
                "pair rule 1: label 'REL_A' is positive in pair rule 0 and negative in pair rule 1",
            ),
            (
                [{}, {"types": ["problem", "test"], "category": "TeP", "positive": ["REL_A"], "negative": "NTeP"}],
                "pair rule 1: positive label 'REL_A' is under category 'TeP' here and 'TrP' in pair rule 0",
            ),
        ],
        ids=["tab", "cr", "lf", "positive_and_negative", "negative_in_another_rule", "two_categories"],
    )
    def test_schema_label_rejected_exit_2(self, workspace, capsys, rules, message):
        _, config_path, config = workspace
        write_schema(config["schema"], {"pairs": [dict(SIMPLE_SCHEMA["pairs"][0], **rule) for rule in rules]})
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {config['schema']}: {message}\n"

    def test_schema_without_positive_label_exit_2(self, workspace, capsys, monkeypatch):
        # a corpus with no relations is valid under the schema, so only the schema check can stop the run
        _, config_path, config = workspace
        schema = copy.deepcopy(SIMPLE_SCHEMA)
        schema["pairs"][0]["positive"] = []
        write_schema(config["schema"], schema)
        sentences = make_separable_corpus(n_samples=10, seed=0)
        for sentence in sentences:
            sentence["relations"] = []
        write_jsonl(config["corpus"], sentences)
        epochs = []
        train_epoch = optim.train_epoch
        monkeypatch.setattr(optim, "train_epoch", lambda *args: epochs.append(args[-1]) or train_epoch(*args))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {config['schema']}: no pair rule lists a positive label\n"
        assert epochs == []

    def test_train_model_leaves_config_unchanged(self, workspace):
        _, config_path, _ = workspace
        cfg = load_run_config(str(config_path))
        before = copy.deepcopy(cfg)
        schema, samples, _ = _load_training_data(cfg)
        mcfg, _, _, _ = train_model(cfg, samples, schema)
        assert cfg == before
        assert mcfg.class_names == schema.class_names and cfg.model.class_names == []

    def test_unknown_config_key_exit_2(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        config["mystery"] = True
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_dev_corpus_without_pairs_exit_2(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        dev = tmp_path / "dev.jsonl"
        config["dev_corpus"] = str(dev)
        config_path.write_text(json.dumps(config))
        write_jsonl(str(dev), make_separable_corpus(n_samples=6, seed=5))
        assert main(["train", "--config", str(config_path)]) == 0
        assert json.loads((tmp_path / "out" / "train_meta.json").read_text())["dev_used"] is True

        # a sentence without concepts holds no in-schema pair
        write_jsonl(str(dev), [{"id": "bare", "tokens": ["w0", "w1", "w2"]}])
        capsys.readouterr()
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == f"error: {dev}: no relation samples found\n"
        assert not (tmp_path / "again").exists()


class TestEmbeddings:
    def test_width_must_equal_d_w(self, workspace):
        tmp_path, config_path, _ = workspace
        path = tmp_path / "vecs.txt"
        cfg = replace(load_run_config(str(config_path)), embeddings=str(path))
        schema, samples, _ = _load_training_data(cfg)
        # no token of the file in the vocabulary, then one ("improves")
        for tokens in (["absent"], ["absent", "improves"]):
            path.write_text(f"{len(tokens)} 3\n" + "".join(f"{token} 1 2 3\n" for token in tokens))
            with pytest.raises(ConfigError, match=re.escape(f"{path}: embedding width 3 != model d_w 8")):
                train_model(cfg, samples, schema)


class TestShortPairs:
    def test_predict_scores_pairs_shorter_than_k(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        config["model"]["k"] = 3
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 0
        corpus = tmp_path / "with_short.jsonl"
        write_jsonl(str(corpus), make_separable_corpus(n_samples=10, seed=4) + _short_sentences(5))
        out = tmp_path / "pred_short"
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                "--corpus", str(corpus),
                "--schema", config["schema"],
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "predictions.tsv").read_text().strip().split("\n")[1:]
        expected = [f"syn{i}:c1:c2" for i in range(10)] + [f"short{i}:c1:c2" for i in range(5)]
        assert [row.split("\t")[0] for row in rows] == expected
        assert "scored 15 of 15 pairs" in capsys.readouterr().out

    def test_short_pairs_trained(self, workspace, monkeypatch):
        tmp_path, config_path, config = workspace
        write_jsonl(config["corpus"], make_separable_corpus(n_samples=40, seed=0) + _short_sentences(5))
        config["model"]["k"] = 3
        config["train"]["max_epochs"] = 2
        config_path.write_text(json.dumps(config))
        # training passes a dropout rng to the forward pass, scoring does not
        trained_sizes = []
        forward = model.forward

        def recording_forward(batch, cfg, params, rng=None):
            if rng is not None:
                trained_sizes.append(batch.size)
            return forward(batch, cfg, params, rng=rng)

        monkeypatch.setattr(model, "forward", recording_forward)
        assert main(["train", "--config", str(config_path)]) == 0
        meta = json.loads((tmp_path / "out" / "train_meta.json").read_text())
        assert meta["pairs_enumerated"] == 45 and meta["skipped_short"] == 0
        # batch size 16: each epoch's batches hold all 45 pairs
        assert trained_sizes == [16, 16, 13] * meta["epochs_run"] and meta["epochs_run"] == 2

    def test_vocabulary_lookups_do_not_grow_with_epochs(self, workspace, monkeypatch):
        _, config_path, _ = workspace
        cfg = load_run_config(str(config_path))
        schema, samples, _ = _load_training_data(cfg)
        calls = Counter()
        for name in ("encode_token", "encode_position"):
            def counted(self, value, _name=name, _original=getattr(Vocab, name)):
                calls[_name] += 1
                return _original(self, value)

            monkeypatch.setattr(Vocab, name, counted)
        lookups = []
        for epochs in (1, 3):
            calls.clear()
            run = replace(cfg, train=replace(cfg.train, max_epochs=epochs, patience=epochs))
            _, _, _, meta = train_model(run, samples[:30], schema, dev_samples=samples[30:])
            assert meta["epochs_run"] == epochs
            lookups.append(dict(calls))
        assert lookups[0] == lookups[1] and lookups[0]["encode_token"] > 0


class TestScoreCorpus:
    def _model(self):
        classes = ["A", "B", "C"]
        vocab = Vocab(tokens=[f"w{i}" for i in range(10)], clip=10, class_names=classes, positive_classes=classes[:2])
        cfg = model.ModelConfig(d_w=6, d_p=2, d_c=5, d_h=4, k=3, dropout_p=0.0, seed=4, class_names=classes)
        return vocab, cfg, model.init_params(cfg, vocab.n_tokens, vocab.n_positions)

    def test_empty_corpus(self):
        vocab, cfg, params = self._model()
        assert cli._score_corpus(data.encode([], vocab, cfg.k), vocab, cfg, params) == []

    def test_width_sorted_batches_keep_corpus_order(self, monkeypatch):
        vocab, cfg, params = self._model()
        samples = []
        # the pair of 2 tokens is shorter than k = 3 and encodes 3 wide
        for i, n in enumerate((6, 2, 9, 4, 3, 8, 5)):
            tokens = [f"w{(7 * i + 3 * j) % 10}" for j in range(n)]
            label = vocab.class_names[i % 3]
            samples.append(RelationSample(tokens, 0, n - 1, label, f"s{i}"))
        corpus = data.encode(samples, vocab, cfg.k)
        in_order, _ = data.batchify(corpus, range(len(corpus)), batch_size=2)
        expected = np.concatenate([model.predict(b, cfg, params)[0] for b in in_order])
        # the seed's predictions differ between pairs, so a wrong order shows
        assert len(set(expected.tolist())) == 3

        calls = []
        gru_step = layers.gru_step
        monkeypatch.setattr(layers, "gru_step", lambda *args: calls.append(1) or gru_step(*args))
        monkeypatch.setattr(cli, "SCORE_COLUMNS", 11)
        records = cli._score_corpus(corpus, vocab, cfg, params)
        assert [r.sample_id for r in records] == [f"s{i}" for i in range(7)]
        assert [r.gold for r in records] == [s.label for s in samples]
        assert [r.pred for r in records] == [vocab.class_names[p] for p in expected]
        # widths 3 3 4 | 5 6 | 8 | 9 fill batches of at most 11 columns and
        # run 2 + 4 + 6 + 7 steps per direction, where corpus order under
        # the same budget (6 3 | 9 | 4 3 | 8 | 5) runs 4 + 7 + 2 + 6 + 3
        assert len(calls) == 2 * 19

    def test_batches_fit_the_column_budget(self, monkeypatch):
        vocab, cfg, params = self._model()
        widths = np.random.default_rng(5).integers(1, 40, size=60)
        samples = [
            RelationSample([f"w{j % 10}" for j in range(n)], 0, n - 1, "A", f"s{i}") for i, n in enumerate(widths)
        ]
        corpus = data.encode(samples, vocab, cfg.k)
        budget = 30
        monkeypatch.setattr(cli, "SCORE_COLUMNS", budget)
        seen = []
        predict = model.predict
        monkeypatch.setattr(model, "predict", lambda batch, *args: seen.append(batch.lengths) or predict(batch, *args))
        records = cli._score_corpus(corpus, vocab, cfg, params)
        assert [r.sample_id for r in records] == [s.sample_id for s in samples]
        assert sorted(np.concatenate(seen).tolist()) == sorted(np.diff(corpus.offsets).tolist())
        # a batch passes the budget only when it holds one pair, and it
        # closes only when the next pair would not fit
        assert all(lengths.sum() <= budget or len(lengths) == 1 for lengths in seen)
        assert any(lengths.sum() > budget for lengths in seen)
        assert all(a.sum() + b[0] > budget for a, b in zip(seen, seen[1:]))

    def test_long_pairs_score_in_bounded_memory(self):
        # 64 pairs 300 columns wide: a batch of all 64 would hold 19,200
        # columns, while the budget holds a few at a time, so scoring them
        # all peaks about as high as scoring the pairs that fill one batch
        vocab, cfg, params = self._model()
        samples = [RelationSample([f"w{(i + j) % 10}" for j in range(300)], 0, 299, "A", f"s{i}") for i in range(64)]
        per_batch = cli.SCORE_COLUMNS // 300
        assert 1 <= per_batch < 64
        peaks = []
        for n in (per_batch, 64):
            corpus = data.encode(samples[:n], vocab, cfg.k)
            tracemalloc.start()
            try:
                cli._score_corpus(corpus, vocab, cfg, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


class TestCvCommand:
    def test_five_folds(self, workspace):
        tmp_path, config_path, _ = workspace
        assert main(["cv", "--config", str(config_path), "--folds", "5"]) == 0
        rows = (tmp_path / "out" / "cv_results.tsv").read_text().strip().split("\n")
        assert len(rows) == 1 + 5 + 1  # header, folds, mean

    def test_two_folds_minimum(self, workspace):
        tmp_path, config_path, _ = workspace
        assert main(["cv", "--config", str(config_path), "--folds", "2"]) == 0
        rows = (tmp_path / "out" / "cv_results.tsv").read_text().strip().split("\n")
        assert len(rows) == 4

    @pytest.mark.parametrize("dev_set", ["dev_fraction", "dev_corpus"])
    def test_each_fold_gets_the_dev_set(self, workspace, monkeypatch, dev_set):
        tmp_path, config_path, config = workspace
        if dev_set == "dev_corpus":
            sentences = make_separable_corpus(n_samples=6, seed=5)
            for sentence in sentences:
                sentence["id"] = f"dev_{sentence['id']}"
            config["dev_corpus"] = str(tmp_path / "dev.jsonl")
            write_jsonl(config["dev_corpus"], sentences)
        else:
            config["train"]["dev_fraction"] = 0.5
        config_path.write_text(json.dumps(config))
        calls = []

        def spy(cfg, train_samples, schema, dev_samples=None, **kwargs):
            calls.append((train_samples, dev_samples))
            return train_model(cfg, train_samples, schema, dev_samples=dev_samples, **kwargs)

        monkeypatch.setattr(cli, "train_model", spy)
        assert main(["cv", "--config", str(config_path), "--folds", "3"]) == 0
        schema = data.load_schema(config["schema"])
        samples = cli._load_samples(config["corpus"], schema, "all")
        assignment = data.make_folds(samples, 3, config["train"]["shuffle_seed"])
        assert len(calls) == 3
        for fold, (train_samples, dev) in enumerate(calls):
            held = [s.sample_id for s, f in zip(samples, assignment) if f == fold]
            dev_ids, train_ids = [s.sample_id for s in dev or []], [s.sample_id for s in train_samples]
            assert dev_ids and set(held).isdisjoint(dev_ids) and set(held).isdisjoint(train_ids)
            if dev_set == "dev_corpus":
                assert dev == cli._load_samples(config["dev_corpus"], schema, "all")
            else:
                assert sorted(held + dev_ids + train_ids) == sorted(s.sample_id for s in samples)

    def test_each_warning_printed_once(self, workspace):
        # a fold splits off its dev set with make_folds too, so one rare class warns in most folds
        tmp_path, config_path, config = workspace
        sentences = make_separable_corpus(n_samples=40, seed=0)
        rare = [s for s in sentences if s["relations"] and s["relations"][0]["label"] == "REL_C"]
        write_jsonl(config["corpus"], [s for s in sentences if s not in rare[1:]])
        config["train"]["dev_fraction"] = 0.5
        config_path.write_text(json.dumps(config))
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "cbgru.cli", "cv", "--config", str(config_path), "--folds", "3"],
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": ""},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"warning: class 'REL_C' has 1 samples for {folds} folds; some folds will lack it" for folds in (3, 2)
        ]

    def test_deterministic(self, workspace):
        tmp_path, config_path, _ = workspace
        main(["cv", "--config", str(config_path), "--folds", "2", "--out", str(tmp_path / "a")])
        main(["cv", "--config", str(config_path), "--folds", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "cv_results.tsv").read_bytes() == (tmp_path / "b" / "cv_results.tsv").read_bytes()


class TestEvalCommand:
    def test_eval_writes_reports(self, workspace):
        tmp_path, config_path, config = workspace
        main(["train", "--config", str(config_path)])
        out = tmp_path / "eval_out"
        code = main(
            [
                "eval",
                "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                "--corpus", config["corpus"],
                "--schema", config["schema"],
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("predictions.tsv", "report.json", "report.txt", "distance_curve.tsv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert "micro" in report and "f1_ci" not in report["micro"]

    def test_ci_flag_adds_intervals(self, workspace):
        tmp_path, config_path, config = workspace
        main(["train", "--config", str(config_path)])
        out = tmp_path / "eval_ci"
        main(
            [
                "eval",
                "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                "--corpus", config["corpus"],
                "--schema", config["schema"],
                "--ci",
                "--out", str(out),
            ]
        )
        report = json.loads((out / "report.json").read_text())
        assert "f1_ci" in report["micro"]
        assert all("f1_ci" in row for row in report["classes"].values())

    def test_schema_mismatch_exit_2(self, workspace, tmp_path_factory):
        tmp_path, config_path, config = workspace
        main(["train", "--config", str(config_path)])
        other_schema = tmp_path / "other_schema.json"
        other_schema.write_text(
            json.dumps(
                {
                    "pairs": [
                        {"types": ["x", "y"], "category": "XY", "positive": ["P"], "negative": "N"}
                    ]
                }
            )
        )
        code = main(
            [
                "eval",
                "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                "--corpus", config["corpus"],
                "--schema", str(other_schema),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_timings_kept_out_of_compared_artifacts(self, workspace):
        tmp_path, config_path, config = workspace
        assert main(["train", "--config", str(config_path)]) == 0
        inputs = [
            "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
            "--corpus", config["corpus"],
            "--schema", config["schema"],
        ]
        for run in ("a", "b"):
            assert main(["eval", *inputs, "--ci", "--out", str(tmp_path / run)]) == 0
        compared = ["distance_curve.tsv", "predictions.tsv", "report.json", "report.txt"]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(compared + ["timings.json"])
        for name in compared:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        timings = json.loads((tmp_path / "a" / "timings.json").read_text())
        assert set(timings) == {"checkpoint_load_s", "score_s", "pairs_scored", "pairs_per_s", "report_s"}
        assert timings["pairs_scored"] == 40
        assert timings["pairs_per_s"] == pytest.approx(40 / timings["score_s"])

        assert main(["predict", *inputs, "--out", str(tmp_path / "p")]) == 0
        assert sorted(p.name for p in (tmp_path / "p").iterdir()) == ["predictions.tsv", "timings.json"]
        assert (tmp_path / "p" / "predictions.tsv").read_bytes() == (tmp_path / "a" / "predictions.tsv").read_bytes()
        timings = json.loads((tmp_path / "p" / "timings.json").read_text())
        assert set(timings) == {"checkpoint_load_s", "score_s", "pairs_scored", "pairs_per_s"}


class TestPredictCommand:
    def test_predictions_written(self, workspace):
        tmp_path, config_path, config = workspace
        main(["train", "--config", str(config_path)])
        out = tmp_path / "pred_out"
        code = main(
            [
                "predict",
                "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                "--corpus", config["corpus"],
                "--schema", config["schema"],
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "predictions.tsv").read_text().strip().split("\n")
        assert len(lines) == 1 + 40


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        """``cbgru gradcheck --seed 0`` passes and prints what
        ``gradcheck_seed0.txt`` holds. A change that moves the errors on
        purpose regenerates the copy with ``PYTHONPATH=src python -m
        cbgru.cli gradcheck --seed 0 > tests/gradcheck_seed0.txt``. The toy
        sizes keep BLAS single-threaded, so the thread count leaves the
        output alone, but another BLAS build may differ in the printed
        digits."""
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "gradcheck_seed0.txt").read_text()

    def test_corrupted_block_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(gradcheck, "_check_embed", lambda rng: 1.0)
        assert main(["gradcheck", "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        assert "gradient check failed for: embed\n" in err
        lines = out.splitlines()
        assert lines[0].startswith("FAIL  embed") and len(lines) == 10
        assert all(line.startswith("PASS") for line in lines[1:])

    def test_deterministic_error_values(self):
        a = gradcheck.run_gradcheck(seed=5)
        b = gradcheck.run_gradcheck(seed=5)
        assert [r.max_rel_error for r in a] == [r.max_rel_error for r in b]


class TestCliSurface:
    # every subcommand's options: strings, required, default, and type or action
    OPTIONS = {
        "train": {
            ("--config",): (True, None, "store"),
            ("--seed",): (False, None, "_seed"),
            ("--out",): (False, None, "store"),
        },
        "cv": {
            ("--config",): (True, None, "store"),
            ("--folds",): (False, 5, "int"),
            ("--seed",): (False, None, "_seed"),
            ("--out",): (False, None, "store"),
        },
        "eval": {
            ("--checkpoint",): (True, None, "store"),
            ("--corpus",): (True, None, "store"),
            ("--schema",): (True, None, "store"),
            ("--ci",): (False, False, "store_true"),
            ("--seed",): (False, 0, "_seed"),
            ("--out",): (False, "out", "store"),
        },
        "predict": {
            ("--checkpoint",): (True, None, "store"),
            ("--corpus",): (True, None, "store"),
            ("--schema",): (True, None, "store"),
            ("--out",): (False, "out", "store"),
        },
        "gradcheck": {
            ("--seed",): (False, 0, "_seed"),
        },
    }

    def test_options_pinned(self):
        actions = {"_StoreAction": "store", "_StoreTrueAction": "store_true"}
        [sub] = [a for a in cli.build_parser()._actions if a.choices]
        got = {
            command: {
                tuple(a.option_strings): (a.required, a.default, a.type.__name__ if a.type else actions[type(a).__name__])
                for a in parser._actions
                if a.dest != "help"
            }
            for command, parser in sub.choices.items()
        }
        assert got == self.OPTIONS


class TestSeedOption:
    @pytest.mark.parametrize("command", ["gradcheck", "train", "cv", "eval"])
    def test_negative_seed_exit_2(self, workspace, capsys, command):
        # each command would hand the seed to a random generator; train
        # splits off a dev set with it before it validates the config
        tmp_path, config_path, config = workspace
        config["train"]["dev_fraction"] = 0.25
        config_path.write_text(json.dumps(config))
        checkpoint = str(tmp_path / "out" / "checkpoint.bin")
        argv = {
            "gradcheck": ["gradcheck"],
            "train": ["train", "--config", str(config_path)],
            "cv": ["cv", "--config", str(config_path)],
            "eval": ["eval", "--checkpoint", checkpoint, "--corpus", config["corpus"], "--schema", config["schema"], "--ci"],
        }[command]
        if command == "eval":
            assert main(["train", "--config", str(config_path)]) == 0
            capsys.readouterr()
        assert main(argv + ["--seed", "-3"]) == 2
        assert "argument --seed: must be >= 0, got -3" in capsys.readouterr().err


class TestConfigLoading:
    def test_defaults_present_when_omitted(self, workspace):
        tmp_path, _, _ = workspace
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({"corpus": "c", "schema": "s"}))
        cfg = load_run_config(str(path))
        assert cfg.model.d_w == 100
        assert cfg.model.d_c == 200
        assert cfg.model.dropout_p == 0.5
        assert cfg.model.l2_beta == 0.0001
        assert cfg.train.lr == 0.01

    def test_unknown_section_key(self, workspace):
        tmp_path, _, _ = workspace
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"warp_speed": 9}}))
        with pytest.raises(ConfigError):
            load_run_config(str(path))

    @pytest.mark.parametrize("config", [[1], {"train": 5}, {"model": "max"}])
    def test_non_object_config_rejected(self, workspace, config):
        path = workspace[0] / "bad.json"
        path.write_text(json.dumps(config))
        where = f"{path}: " + "".join(f"{section}: " for section in config if isinstance(config, dict))
        with pytest.raises(ConfigError, match="must be a JSON object") as exc:
            load_run_config(str(path))
        assert str(exc.value).startswith(where)

    @pytest.mark.parametrize(
        "key, value", [("corpus", ["c.jsonl"]), ("schema", 3), ("out_dir", 5), ("dev_corpus", 0), ("embeddings", 1)]
    )
    def test_path_must_be_string_exit_2(self, workspace, capsys, key, value):
        _, config_path, config = workspace
        config[key] = value
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config_path}: {key} must be a string")

    def test_model_class_names_rejected(self, workspace, capsys):
        # training takes the class names from the schema, so a configured list would be ignored
        _, config_path, config = workspace
        config["model"]["class_names"] = ["BOGUS"]
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config_path}: model: class_names is taken from the schema")

    def test_dev_corpus_and_dev_fraction_exclusive(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        config["dev_corpus"] = config["corpus"]
        config["train"]["dev_fraction"] = 0.25
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {config_path}: dev_corpus and a train.dev_fraction above 0 exclude each other\n"
        assert not (tmp_path / "out").exists()
        config["train"]["dev_fraction"] = 0.0
        config_path.write_text(json.dumps(config))
        assert load_run_config(str(config_path)).dev_corpus == config["corpus"]

    @pytest.mark.parametrize("fraction, folds", [(0.25, 4), (0.5, 2), (1 / 3, 3)])
    def test_dev_fraction_holds_out_one_fold(self, workspace, fraction, folds):
        _, config_path, config = workspace
        config["train"]["dev_fraction"] = fraction
        config_path.write_text(json.dumps(config))
        cfg = load_run_config(str(config_path))
        _, samples, dev_corpus = _load_training_data(cfg)
        train, dev = cli._split_dev(samples, dev_corpus, cfg)
        assignment = data.make_folds(samples, folds, cfg.train.shuffle_seed)
        assert dev == [s for s, f in zip(samples, assignment) if f == 0]
        assert train == [s for s, f in zip(samples, assignment) if f != 0]

    def test_readme_example_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"Example `run\.json`.*?```json\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "run.json"
        path.write_text(example)
        assert load_run_config(str(path)) == RunConfig(corpus="train.jsonl", schema="schema.json")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "d_w", 6.5),
            ("model", "d_w", "8"),
            ("model", "dropout_p", "0.5"),
            ("train", "batch_size", 2.5),
            ("data", "min_count", "2"),
            ("data", "clip", -1),
            ("model", "k", True),
            ("train", "lr", 0.0),
            ("train", "lr", -1.0),
            ("train", "dev_fraction", 0.3),
            ("train", "dev_fraction", 0.6),
        ],
    )
    def test_bad_value_exit_2(self, workspace, capsys, section, key, value):
        _, config_path, config = workspace
        config[section][key] = value
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config_path}: {section}: {key} must be")

    @pytest.mark.parametrize("key", ["d_w", "d_c"])
    def test_unallocatable_model_exit_2(self, workspace, capsys, key):
        # 10**15 is addressable, so the address-space check lets it through,
        # but no allocator can hold an array of that many rows
        _, config_path, config = workspace
        config["model"][key] = 10**15
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_non_finite_loss_exit_2(self, workspace, capsys, monkeypatch):
        tmp_path, config_path, _ = workspace
        # an embeddings file cannot carry a NaN, so the initial weights do
        init_params = model.init_params

        def nan_params(*args):
            params = init_params(*args)
            params.values["conv.b"][0] = np.nan
            return params

        monkeypatch.setattr(model, "init_params", nan_params)
        assert main(["train", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "epoch 1: loss is nan on the batch of samples syn" in err
        assert not (tmp_path / "out" / "train_log.tsv").exists()

    def test_non_utf8_config_exit_2(self, workspace, capsys):
        _, config_path, config = workspace
        config["out_dir"] = "out_\xff"
        config_path.write_bytes(json.dumps(config, indent=1, ensure_ascii=False).encode("latin-1"))
        assert main(["train", "--config", str(config_path)]) == 2
        assert f"error: {config_path}:4: not UTF-8 text" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        assert main(["train"]) == 2

    @pytest.mark.parametrize("case", ["config_dir", "corpus_dir", "checkpoint_dir", "out_file"])
    def test_unusable_path_exit_2(self, workspace, capsys, case):
        # the OSError's message names the path; no traceback escapes main
        tmp_path, config_path, config = workspace
        bad = tmp_path / "bad"
        if case == "out_file":
            bad.write_text("")
        else:
            bad.mkdir()
        bad_corpus = tmp_path / "bad_corpus.json"
        bad_corpus.write_text(json.dumps({**config, "corpus": str(bad)}))
        argv = {
            "config_dir": ["train", "--config", str(bad)],
            "corpus_dir": ["train", "--config", str(bad_corpus)],
            "checkpoint_dir": [
                "eval", "--checkpoint", str(bad), "--corpus", config["corpus"], "--schema", config["schema"],
                "--out", str(tmp_path / "eval"),
            ],
            "out_file": ["train", "--config", str(config_path), "--out", str(bad)],
        }[case]
        assert main(argv) == 2
        code = errno.EEXIST if case == "out_file" else errno.EISDIR
        assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: {str(bad)!r}\n"

    @pytest.mark.parametrize("key", ["schema", "dev_corpus", "embeddings", "checkpoint"])
    def test_missing_path_exit_2(self, workspace, capsys, key):
        # the open that reads the file reports it; test_missing_corpus_exit_2 covers the corpus
        tmp_path, config_path, config = workspace
        missing = str(tmp_path / "nope")
        if key == "checkpoint":
            argv = ["eval", "--checkpoint", missing, "--corpus", config["corpus"], "--schema", config["schema"]]
            argv += ["--out", str(tmp_path / "eval")]
        else:
            config_path.write_text(json.dumps({**config, key: missing}))
            argv = ["train", "--config", str(config_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {missing!r}\n"

    @pytest.mark.parametrize("key, value", [("corpus", None), ("schema", None), ("corpus", ""), ("out_dir", "")])
    def test_unset_path_exit_2(self, workspace, capsys, key, value):
        # None leaves the key out, so it takes its default
        tmp_path, config_path, config = workspace
        if value is None:
            del config[key]
        else:
            config[key] = value
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {config_path}: {key} must be set\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_unusable_out_fails_before_loading(self, workspace, capsys, monkeypatch, command):
        tmp_path, config_path, config = workspace
        assert main(["train", "--config", str(config_path)]) == 0
        capsys.readouterr()
        loads = []
        monkeypatch.setattr(model, "checkpoint_load", lambda path: loads.append(path))
        out = tmp_path / "taken"
        out.write_text("")
        argv = [command, "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"), "--out", str(out)]
        assert main(argv + ["--corpus", config["corpus"], "--schema", config["schema"]]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno {errno.EEXIST}] File exists: {str(out)!r}\n")
        assert loads == []
