"""The benchmark's workloads: their inputs, their set-up, one unit of work
through the package's public functions, and the checks on its outputs.

A unit is what a user runs after set-up. On ``train_*`` it is
``cli.train_model`` (dev split scored each epoch) followed by scoring a
held-out test split; on ``eval_bgru_att`` it is scoring a held-out corpus
with a loaded checkpoint. Scoring is ``cli.predict_records`` and then
``evaluation.build_report`` with bootstrap CIs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

import gen
from cbgru import cli, data, evaluation, model, optim
from cbgru.model import ModelConfig

# paper dimensions: d_w 100, d_p 10, d_c 200, d_h 100, k 3, batch 32
PAPER_DIMS = dict(d_w=100, d_p=10, d_c=200, d_h=100, k=gen.K)
BATCH = 32
BOOTSTRAP_B = 1000
LEXICON_TYPES = 20000
TINY_DIVISOR = 10  # --tiny: corpora this many times smaller


@dataclass(frozen=True)
class Workload:
    name: str
    pooling: str
    use_gru: bool
    train_sentences: int  # trains the model, or builds the checkpoint's vocabulary
    dev_sentences: int
    test_sentences: int
    epochs: int  # 0: load a checkpoint instead of training
    reports: int  # build_report calls per unit, each timed: more samples of report_s


WORKLOADS = {
    w.name: w
    for w in (
        # the biGRU forward and backward take about 90% of the time
        Workload("train_bgru_max", "max", True, train_sentences=70, dev_sentences=20, test_sentences=70, epochs=2, reports=4),
        # bypasses the GRU: conv, embed, dense Adam and L2 over ~4k-word
        # embedding tables, and per-epoch batchify
        Workload("train_cnn", "max", False, train_sentences=800, dev_sentences=150, test_sentences=150, epochs=2, reports=3),
        # forward-only, and evaluation does most of the work; the only
        # workload that loads a checkpoint and uses attentive pooling
        Workload("eval_bgru_att", "attentive", True, train_sentences=800, dev_sentences=0, test_sentences=430, epochs=0, reports=2),
    )
}


@dataclass
class Inputs:
    """What set-up hands to a unit: parsed samples plus, for eval, the loaded model."""

    schema: data.PairSchema
    train: List[data.RelationSample]
    dev: List[data.RelationSample]
    test: List[data.RelationSample]
    loaded: Optional[tuple] = None  # (ModelConfig, ParamSet, Vocab)


@dataclass
class Unit:
    work: int  # samples trained x epochs, or pairs scored
    work_s: float  # wall time of cli.train_model, or of cli.predict_records
    report_s: List[float]  # one per build_report call
    attempted: int
    failed: int
    fingerprint: str = ""
    errors: List[str] = field(default_factory=list)


def _model_config(w: Workload, seed: int, schema: data.PairSchema) -> ModelConfig:
    return ModelConfig(**PAPER_DIMS, pooling=w.pooling, use_gru=w.use_gru, seed=seed, class_names=schema.class_names)


def prepare(w: Workload, seed: int, workdir: str, tiny: bool) -> Dict[str, str]:
    """Writes the workload's seeded input files; returns their paths."""
    rng = np.random.default_rng(seed)
    lexicon = gen.Lexicon(LEXICON_TYPES)
    paths = {"schema": os.path.join(workdir, "schema.json")}
    gen.write_schema(paths["schema"])
    for split in ("train", "dev", "test"):
        n = getattr(w, f"{split}_sentences")
        if n:
            n = max(4, n // TINY_DIVISOR) if tiny else n
            paths[split] = os.path.join(workdir, f"{split}.jsonl")
            gen.write_jsonl(paths[split], gen.make_corpus(rng, n, lexicon, f"{split}-"))
    if w.epochs == 0:
        schema = data.load_schema(paths["schema"])
        vocab = data.build_vocab(data.corpus_samples(data.parse_corpus(paths["train"]), schema), schema)
        mcfg = _model_config(w, seed, schema)
        params = model.init_params(mcfg, vocab.n_tokens, vocab.n_positions)
        paths["checkpoint"] = os.path.join(workdir, "checkpoint.bin")
        model.checkpoint_save(paths["checkpoint"], mcfg, params, vocab)
        del paths["train"]
    return paths


def setup(w: Workload, paths: Dict[str, str]) -> Inputs:
    """Parse the corpora and enumerate pairs; on eval, also load the
    checkpoint. On ``train_*`` the vocabulary and the initial parameters are
    built inside ``cli.train_model``, so they are timed with the unit."""
    schema = data.load_schema(paths["schema"])
    if w.epochs == 0:
        mcfg, params, vocab = model.checkpoint_load(paths["checkpoint"])
        if schema.class_names != vocab.class_names:
            raise data.ConfigError("schema classes do not match the checkpoint")
        test = data.corpus_samples(data.parse_corpus(paths["test"]), schema, clip=vocab.clip, blind=vocab.blind)
        return Inputs(schema, [], [], test, loaded=(mcfg, params, vocab))
    train, dev, test = (data.corpus_samples(data.parse_corpus(paths[s]), schema) for s in ("train", "dev", "test"))
    return Inputs(schema, train, dev, test)


def run_unit(w: Workload, inputs: Inputs, seed: int) -> Unit:
    log_rows: List[str] = []
    if w.epochs:
        cfg = cli.RunConfig(
            model=_model_config(w, seed, inputs.schema),
            train=optim.TrainSchedule(max_epochs=w.epochs, batch_size=BATCH, patience=w.epochs, shuffle_seed=seed),
        )
        t0 = perf_counter()
        mcfg, params, vocab, meta = cli.train_model(cfg, inputs.train, inputs.schema, dev_samples=inputs.dev, log_rows=log_rows)
        train_s = perf_counter() - t0
        trained = len(inputs.train) - meta["skipped_short"]
    else:
        mcfg, params, vocab = inputs.loaded

    t0 = perf_counter()
    records = cli.predict_records(inputs.test, vocab, mcfg, params)
    predict_s = perf_counter() - t0
    report_s, reports = [], []
    for _ in range(w.reports):
        t0 = perf_counter()
        reports.append(evaluation.build_report(
            records, inputs.schema.class_to_category, vocab.positive_classes, with_ci=True, b=BOOTSTRAP_B, seed=seed
        ))
        report_s.append(perf_counter() - t0)
    report = reports[0]

    errors = check_coverage(inputs.test, records, mcfg.k) + check_report(report, records, vocab.positive_classes)
    if any(r != report for r in reports):
        errors.append("build_report gave different reports for the same records and seed")
    fingerprint = hashlib.sha256(
        json.dumps([log_rows, [(r.sample_id, r.pred) for r in records], report], sort_keys=True).encode()
    ).hexdigest()
    if w.epochs:
        per_epoch = math.ceil(trained / BATCH)
        bad_epochs = sum(1 for row in log_rows if not math.isfinite(float(row.split("\t")[1])))
        return Unit(trained * meta["epochs_run"], train_s, report_s, per_epoch * meta["epochs_run"],
                    per_epoch * bad_epochs, fingerprint, errors)
    unscored = len(inputs.test) - len(records)
    return Unit(len(records), predict_s, report_s, len(inputs.test), unscored, fingerprint, errors)


def planned_ops(w: Workload, inputs: Inputs) -> int:
    """Operations a unit attempts: train batches, or in-schema eval pairs."""
    if w.epochs:
        usable = sum(1 for s in inputs.train if len(s.tokens) >= PAPER_DIMS["k"])
        return w.epochs * math.ceil(usable / BATCH)
    return len(inputs.test)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_coverage(
    samples: Sequence[data.RelationSample], records: Sequence[evaluation.PredictionRecord], k: int
) -> List[str]:
    """pairs_scored + dropped == pairs_enumerated, where a pair may be
    dropped only for having fewer than ``k`` blinded tokens: every prediction
    belongs to exactly one enumerated pair and carries its gold label, and
    every unscored pair is a short one."""
    gold = {s.sample_id: s.label for s in samples}
    short = {s.sample_id for s in samples if len(s.tokens) < k}
    scored = Counter(r.sample_id for r in records)
    errors = []
    if len(gold) != len(samples):
        errors.append("enumerated sample ids are not unique")
    if any(n > 1 for n in scored.values()):
        errors.append("a pair was scored more than once")
    if any(r.sample_id not in gold or gold[r.sample_id] != r.gold for r in records):
        errors.append("a prediction names an unknown pair or the wrong gold label")
    lost = set(gold) - set(scored) - short
    if lost:
        errors.append(f"{len(lost)} of {len(samples)} enumerated pairs with at least k={k} tokens were not scored")
    return errors


def _prf(tp: int, fp: int, fn: int):
    p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2.0 * p * r / (p + r) if p + r else 0.0)


def check_report(report: dict, records: Sequence[evaluation.PredictionRecord], positive: Sequence[str]) -> List[str]:
    """The report's micro and per-class P/R/F1 equal a brute-force tally of
    the confusion counts."""
    confusion = Counter((r.gold, r.pred) for r in records)
    pos = set(positive)
    expected = {
        "micro": _prf(
            sum(n for (g, p), n in confusion.items() if g == p and p in pos),
            sum(n for (g, p), n in confusion.items() if g != p and p in pos),
            sum(n for (g, p), n in confusion.items() if g != p and g in pos),
        )
    }
    for c in positive:
        expected[c] = _prf(
            confusion[(c, c)],
            sum(n for (g, p), n in confusion.items() if p == c and g != c),
            sum(n for (g, p), n in confusion.items() if g == c and p != c),
        )
    errors = []
    for name, want in expected.items():
        row = report["micro"] if name == "micro" else report["classes"].get(name)
        got = None if row is None else (row["precision"], row["recall"], row["f1"])
        if got is None or any(abs(a - b) > 1e-9 for a, b in zip(got, want)):
            errors.append(f"report row '{name}' is {got}, tally gives {want}")
    return errors
