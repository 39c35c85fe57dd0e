import copy
import json
import logging
from collections import Counter
from dataclasses import replace

import pytest

from cbgru import gradcheck
from cbgru.cli import _load_training_data, load_run_config, main, train_model
from cbgru.data import ConfigError, Vocab

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
        assert log[0] == "epoch\tloss\tdev_f1"
        assert len(log) == 1 + config["train"]["max_epochs"]
        meta = json.loads((out / "train_meta.json").read_text())
        assert meta["skipped_short"] == 0

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

    def test_train_model_leaves_config_unchanged(self, workspace):
        _, config_path, _ = workspace
        cfg = load_run_config(str(config_path))
        before = copy.deepcopy(cfg)
        schema, samples = _load_training_data(cfg)
        mcfg, _, _, _ = train_model(cfg, samples, schema)
        assert cfg == before
        assert mcfg.class_names == schema.class_names and cfg.model.class_names == []

    def test_unknown_config_key_exit_2(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        config["mystery"] = True
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        assert "mystery" in capsys.readouterr().err


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

    def test_one_skip_warning_per_run(self, workspace, caplog):
        tmp_path, config_path, config = workspace
        write_jsonl(config["corpus"], make_separable_corpus(n_samples=40, seed=0) + _short_sentences(5))
        config["model"]["k"] = 3
        config["train"]["max_epochs"] = 2
        config_path.write_text(json.dumps(config))
        with caplog.at_level(logging.WARNING):
            assert main(["train", "--config", str(config_path)]) == 0
        warnings = [r.getMessage() for r in caplog.records if "convolution window" in r.getMessage()]
        assert warnings == ["skipping 5 training samples shorter than the convolution window k=3"]
        meta = json.loads((tmp_path / "out" / "train_meta.json").read_text())
        assert meta["pairs_enumerated"] == 45 and meta["skipped_short"] == 5

    def test_vocabulary_lookups_do_not_grow_with_epochs(self, workspace, monkeypatch):
        _, config_path, _ = workspace
        cfg = load_run_config(str(config_path))
        schema, samples = _load_training_data(cfg)
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
    def test_default_passes(self):
        assert main(["gradcheck", "--seed", "0"]) == 0

    def test_corrupted_block_fails(self):
        results = gradcheck.run_gradcheck(seed=0, corrupt="conv_k2")
        by_name = {r.name: r for r in results}
        assert not by_name["conv_k2"].passed
        assert by_name["conv_k1"].passed

    def test_deterministic_error_values(self):
        a = gradcheck.run_gradcheck(seed=5)
        b = gradcheck.run_gradcheck(seed=5)
        assert [r.max_rel_error for r in a] == [r.max_rel_error for r in b]


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
        with pytest.raises(ConfigError, match="must be JSON objects"):
            load_run_config(str(path))

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
        ],
    )
    def test_bad_value_exit_2(self, workspace, capsys, section, key, value):
        _, config_path, config = workspace
        config[section][key] = value
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_non_finite_loss_exit_2(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        embeddings = tmp_path / "nan.vec"
        embeddings.write_text("1 8\nimproves " + " ".join(["nan"] * 8) + "\n")
        config["embeddings"] = str(embeddings)
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "epoch 1: loss is nan on the batch of samples syn" in err
        assert not (tmp_path / "out" / "train_log.tsv").exists()

    def test_usage_error_exit_2(self):
        assert main(["train"]) == 2
