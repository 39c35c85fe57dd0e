"""End-to-end acceptance checks for the relation classifier package.

Each test covers one release criterion and prints a single PASS/FAIL line
so the run log doubles as an acceptance report.
"""

import json
import os
import time

import numpy as np

from cbgru import data as data_mod
from cbgru import evaluation, gradcheck, layers, model, optim
from cbgru.cli import DataConfig, RunConfig, main, predict_records
from cbgru.data import PairSchema
from cbgru.evaluation import PredictionRecord
from cbgru.model import ModelConfig
from cbgru.tensor import make_rng

from synthdata import (
    I2B2_STYLE_SCHEMA,
    SIMPLE_SCHEMA,
    make_i2b2_style_corpus,
    make_separable_corpus,
    write_jsonl,
    write_schema,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\nCRITERION {num} [{name}]: {status}{extra}")
    assert ok, f"criterion {num} ({name}) failed{extra}"


def _load_samples(tmp_path, rows, schema_dict):
    path = os.path.join(str(tmp_path), "corpus.jsonl")
    write_jsonl(path, rows)
    schema = PairSchema.from_dict(schema_dict)
    sentences = data_mod.parse_corpus(path)
    return data_mod.corpus_samples(sentences, schema), schema


def test_criterion_1_gradient_soundness():
    t0 = time.time()
    results = gradcheck.run_gradcheck(seed=0)
    elapsed = time.time() - t0
    worst = max(r.max_rel_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 120.0
    _verdict(1, "gradient soundness", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_overfit_capability(tmp_path):
    t0 = time.time()
    samples, schema = _load_samples(
        tmp_path, make_separable_corpus(n_samples=200, vocab_size=50, seed=0), SIMPLE_SCHEMA
    )
    assert len(samples) == 200
    cfg = RunConfig(
        model=ModelConfig(d_w=20, d_p=5, d_c=30, d_h=20, seed=0),
        train=optim.TrainSchedule(max_epochs=50, batch_size=32, shuffle_seed=0, patience=50),
        data=DataConfig(),
    )
    vocab = data_mod.build_vocab(samples, schema)
    mcfg = cfg.model
    mcfg.class_names = schema.class_names
    mcfg.validate()
    params = model.init_params(mcfg, vocab.n_tokens, vocab.n_positions)
    adam = optim.AdamState(params, lr=cfg.train.lr)
    accuracy = 0.0
    epochs_used = 0
    corpus = data_mod.encode(samples, vocab, mcfg.k)
    for epoch in range(cfg.train.max_epochs):
        optim.train_epoch(corpus, mcfg, params, adam, cfg.train, epoch)
        epochs_used = epoch + 1
        records = predict_records(samples, vocab, mcfg, params)
        accuracy = sum(r.gold == r.pred for r in records) / len(records)
        if accuracy >= 0.99:
            break
    elapsed = time.time() - t0
    ok = accuracy >= 0.99 and epochs_used <= 50 and elapsed < 300.0
    _verdict(
        2,
        "overfit capability",
        ok,
        f"train acc {accuracy:.3f} after {epochs_used} epochs, {elapsed:.1f}s",
    )


def test_criterion_3_evaluator_oracle_equivalence():
    rng = make_rng(7)
    classes = ["A", "B", "C", "N"]
    positives = ["A", "B", "C"]
    categories = {"A": "X", "B": "X", "C": "Y"}
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        records = [
            PredictionRecord(
                sample_id=str(i),
                gold=classes[int(rng.integers(len(classes)))],
                pred=classes[int(rng.integers(len(classes)))],
                distance=int(rng.integers(1, 10)),
            )
            for i in range(n)
        ]
        # Brute-force tally, independent of the library's counting path.
        tp = {c: 0 for c in classes}
        fp = {c: 0 for c in classes}
        fn = {c: 0 for c in classes}
        for rec in records:
            if rec.gold == rec.pred:
                tp[rec.gold] += 1
            else:
                fp[rec.pred] += 1
                fn[rec.gold] += 1

        def prf(tp_, fp_, fn_):
            p = 100.0 * tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
            r = 100.0 * tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            return p, r, f

        got = evaluation.micro_f1(records, positives)
        want = prf(
            sum(tp[c] for c in positives),
            sum(fp[c] for c in positives),
            sum(fn[c] for c in positives),
        )
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))

        table = evaluation.per_class_and_category(records, categories, positives)
        for c in positives:
            row = table["classes"][c]
            p, r, f = prf(tp[c], fp[c], fn[c])
            worst = max(worst, abs(row["precision"] - p), abs(row["recall"] - r), abs(row["f1"] - f))
        for cat in ("X", "Y"):
            members = [c for c in positives if categories[c] == cat]
            p, r, f = prf(
                sum(tp[c] for c in members),
                sum(fp[c] for c in members),
                sum(fn[c] for c in members),
            )
            row = table["categories"][cat]
            worst = max(worst, abs(row["precision"] - p), abs(row["recall"] - r), abs(row["f1"] - f))
    _verdict(3, "evaluator oracle equivalence", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_4_pooling_attention_invariants():
    rng = make_rng(11)
    cases = 10_000
    ok = True
    for i in range(cases):
        rows = int(rng.integers(1, 7))
        valid = int(rng.integers(1, 9))
        pad = int(rng.integers(0, 4))
        h = rng.normal(size=(rows, valid + pad))
        if i % 2 == 0:
            v = rng.normal(size=rows)
            _, alpha, _ = layers.attentive_pool(h, v, valid)
            if abs(alpha[:valid].sum() - 1.0) > 1e-9 or np.any(alpha[valid:] != 0.0):
                ok = False
                break
        else:
            pooled, _ = layers.max_pool(h, valid)
            padded = np.concatenate([h, rng.normal(size=(rows, 3))], axis=1)
            pooled2, _ = layers.max_pool(padded, valid)
            if pooled.tobytes() != pooled2.tobytes():
                ok = False
                break
    _verdict(4, "pooling/attention invariants", ok, f"{cases} randomized cases")


def test_criterion_5_ablation_shape_check():
    class_names = ["A", "B", "N"]
    with_gru = ModelConfig(d_w=6, d_p=2, d_c=5, d_h=4, k=2, use_gru=True, class_names=class_names)
    without = ModelConfig(d_w=6, d_p=2, d_c=5, d_h=4, k=2, use_gru=False, class_names=class_names)
    p1 = model.init_params(with_gru, n_tokens=10, n_positions=8)
    p2 = model.init_params(without, n_tokens=10, n_positions=8)
    ok = (
        with_gru.pooled_dim == 2 * with_gru.d_h
        and without.pooled_dim == without.d_c
        and p1.values["cls.W"].shape[1] == 2 * with_gru.d_h
        and p2.values["cls.W"].shape[1] == without.d_c
        and not any(name.startswith("gru") for name in p2.values)
    )
    _verdict(5, "ablation shape check", ok, f"pooled dims {with_gru.pooled_dim}/{without.pooled_dim}")


def test_criterion_6_bootstrap_degenerate_and_scaling():
    perfect = [PredictionRecord(str(i), "A", "A", 1) for i in range(50)]
    ci = evaluation.bootstrap_ci(perfect, lambda recs: evaluation.micro_f1(recs, ["A"])[2], b=1000)
    degenerate_ok = ci == (100.0, 100.0)

    def accuracy(recs):
        return 100.0 * sum(r.gold == r.pred for r in recs) / len(recs)

    def bernoulli(n, seed):
        rng = make_rng(seed)
        return [
            PredictionRecord(str(i), "A", "A" if rng.random() < 0.7 else "B", 1) for i in range(n)
        ]

    lo1, hi1 = evaluation.bootstrap_ci(bernoulli(250, 3), accuracy, b=1000, seed=3)
    lo2, hi2 = evaluation.bootstrap_ci(bernoulli(1000, 4), accuracy, b=1000, seed=4)
    ratio = (hi1 - lo1) / (hi2 - lo2)
    scaling_ok = 1.4 <= ratio <= 2.6
    _verdict(
        6,
        "bootstrap degenerate + scaling",
        degenerate_ok and scaling_ok,
        f"degenerate CI {ci}, width ratio {ratio:.2f}",
    )


def test_criterion_7_distance_curve_oracle():
    rng = make_rng(13)
    # Dense support at short distances, sparse tail beyond 6.
    records = []
    counts = {1: 30, 2: 40, 3: 35, 4: 25, 5: 22, 6: 21, 7: 12, 8: 5}
    i = 0
    for d, n in counts.items():
        for _ in range(n):
            gold = "A" if rng.random() < 0.6 else "N"
            pred = gold if rng.random() < 0.8 else ("N" if gold == "A" else "A")
            records.append(PredictionRecord(str(i), gold, pred, d))
            i += 1
    curve = evaluation.distance_curve(records, ["A"], window=2, min_support=20)
    truncation_ok = [d for d, _ in curve] == [1, 2, 3, 4, 5, 6]
    points_ok = True
    for d, f1 in curve:
        subset = [r for r in records if d - 2 <= r.distance <= d + 2]
        expect = evaluation.micro_f1(subset, ["A"])[2]
        if abs(f1 - expect) > 1e-12:
            points_ok = False
    _verdict(7, "distance-curve oracle", truncation_ok and points_ok, f"{len(curve)} curve points")


def test_criterion_8_training_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    schema = tmp_path / "schema.json"
    write_jsonl(str(corpus), make_separable_corpus(n_samples=60, seed=2))
    write_schema(str(schema), SIMPLE_SCHEMA)
    config = {
        "corpus": str(corpus),
        "schema": str(schema),
        "model": {"d_w": 8, "d_p": 3, "d_c": 6, "d_h": 5, "k": 2, "seed": 3},
        "train": {"max_epochs": 4, "batch_size": 16, "shuffle_seed": 3, "patience": 4},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run_a")]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run_b")]) == 0
    logs_equal = (tmp_path / "run_a" / "train_log.tsv").read_bytes() == (
        tmp_path / "run_b" / "train_log.tsv"
    ).read_bytes()
    ckpt_equal = (tmp_path / "run_a" / "checkpoint.bin").read_bytes() == (
        tmp_path / "run_b" / "checkpoint.bin"
    ).read_bytes()
    _verdict(8, "training determinism", logs_equal and ckpt_equal, "logs and checkpoints byte-identical")


def test_criterion_9_end_to_end_clinical_schema(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    schema_path = tmp_path / "schema.json"
    write_jsonl(str(corpus), make_i2b2_style_corpus(n_sentences=80, seed=1))
    write_schema(str(schema_path), I2B2_STYLE_SCHEMA)
    config = {
        "corpus": str(corpus),
        "schema": str(schema_path),
        "model": {"d_w": 8, "d_p": 3, "d_c": 6, "d_h": 5, "k": 2, "seed": 1},
        "train": {"max_epochs": 2, "batch_size": 16, "shuffle_seed": 1, "patience": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    train_out = tmp_path / "train_out"
    eval_out = tmp_path / "eval_out"
    train_rc = main(["train", "--config", str(config_path), "--out", str(train_out)])
    eval_rc = main(
        [
            "eval",
            "--checkpoint", str(train_out / "checkpoint.bin"),
            "--corpus", str(corpus),
            "--schema", str(schema_path),
            "--out", str(eval_out),
        ]
    )
    artifacts = ["predictions.tsv", "report.json", "report.txt", "distance_curve.tsv"]
    files_ok = all((eval_out / name).exists() for name in artifacts)
    shape_ok = False
    if files_ok:
        report = json.loads((eval_out / "report.json").read_text())
        shape_ok = (
            len(report["categories"]) == 3
            and len(report["classes"]) == 8
            and {"precision", "recall", "f1", "support"} <= set(report["micro"])
        )
    ok = train_rc == 0 and eval_rc == 0 and files_ok and shape_ok
    _verdict(9, "end-to-end clinical schema", ok, "3 categories, 8 positive classes reported")
