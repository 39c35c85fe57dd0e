"""Command-line surface: train, cv, eval, predict, gradcheck.

Exit codes: 0 success, 1 check/assertion failure, 2 usage or config error.
All artifacts land under the configured output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from . import data as data_mod
from . import evaluation, gradcheck, model, optim
from .data import (
    ConfigError,
    DataError,
    InputError,
    PairSchema,
    ParseError,
    RelationSample,
    Vocab,
    check_int,
)
from .evaluation import PredictionRecord
from .model import FormatError, ModelConfig, ParamSet
from .tensor import NumericError

log = logging.getLogger(__name__)


@dataclass
class DataConfig:
    clip: int = 50
    blind: str = "all"
    min_count: int = 1

    def validate(self) -> None:
        check_int("data.clip", self.clip, 0)
        check_int("data.min_count", self.min_count, 1)
        if self.blind not in ("all", "targets"):
            raise ConfigError("data.blind must be 'all' or 'targets'")


@dataclass
class RunConfig:
    corpus: str = ""
    schema: str = ""
    dev_corpus: Optional[str] = None
    embeddings: Optional[str] = None
    out_dir: str = "out"
    model: ModelConfig = field(default_factory=ModelConfig)
    train: optim.TrainSchedule = field(default_factory=optim.TrainSchedule)
    data: DataConfig = field(default_factory=DataConfig)


def _from_section(cls, obj: dict, section: str):
    known = set(cls.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown keys in '{section}' section: {sorted(unknown)}")
    return cls(**obj)


def load_run_config(path: str) -> RunConfig:
    """JSON config with full key validation; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict) or not all(isinstance(obj.get(s, {}), dict) for s in ("model", "train", "data")):
        raise ConfigError(f"{path}: the config and its 'model', 'train' and 'data' sections must be JSON objects")
    known = {"corpus", "schema", "dev_corpus", "embeddings", "out_dir", "model", "train", "data"}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(
        corpus=obj.get("corpus", ""),
        schema=obj.get("schema", ""),
        dev_corpus=obj.get("dev_corpus"),
        embeddings=obj.get("embeddings"),
        out_dir=obj.get("out_dir", "out"),
        model=ModelConfig.from_dict(obj.get("model", {})),
        train=_from_section(optim.TrainSchedule, obj.get("train", {}), "train"),
        data=_from_section(DataConfig, obj.get("data", {}), "data"),
    )
    cfg.train.validate()
    cfg.data.validate()
    return cfg


def _require_file(path: str, what: str) -> None:
    if not path:
        raise ConfigError(f"no {what} path configured")
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")


def _score_corpus(
    corpus: data_mod.EncodedCorpus, vocab: Vocab, cfg: ModelConfig, params: ParamSet, batch_size: int = 64
) -> List[PredictionRecord]:
    batches, _ = data_mod.batchify(corpus, range(len(corpus)), batch_size)
    preds = [int(p) for batch in batches for p in model.predict(batch, cfg, params)[0]]
    return [
        PredictionRecord(sample_id, vocab.class_names[gold], vocab.class_names[pred], distance)
        for sample_id, gold, pred, distance in zip(corpus.sample_ids, corpus.labels.tolist(), preds, corpus.distances)
    ]


def predict_records(
    samples: Sequence[RelationSample],
    vocab: Vocab,
    cfg: ModelConfig,
    params: ParamSet,
    batch_size: int = 64,
) -> List[PredictionRecord]:
    """One prediction per sample, in corpus order; samples shorter than the
    convolution window are scored padded with PAD."""
    return _score_corpus(data_mod.encode(samples, vocab, cfg.k), vocab, cfg, params, batch_size)


def _micro_score(records: Sequence[PredictionRecord], vocab: Vocab) -> float:
    if not records:
        return 0.0
    return evaluation.micro_f1(records, vocab.positive_classes)[2]


def _load_training_data(cfg: RunConfig):
    _require_file(cfg.corpus, "corpus")
    _require_file(cfg.schema, "schema")
    schema = data_mod.load_schema(cfg.schema)
    sentences = data_mod.parse_corpus(cfg.corpus)
    samples = data_mod.corpus_samples(sentences, schema, clip=cfg.data.clip, blind=cfg.data.blind)
    if not samples:
        raise InputError(f"{cfg.corpus}: no relation samples found")
    return schema, samples


def train_model(
    cfg: RunConfig,
    train_samples: Sequence[RelationSample],
    schema: PairSchema,
    dev_samples: Optional[Sequence[RelationSample]] = None,
    log_rows: Optional[List[str]] = None,
):
    """Shared training loop; returns (model_cfg, params, vocab, meta)."""
    cfg.train.validate()
    cfg.data.validate()
    vocab = data_mod.build_vocab(
        train_samples, schema, min_count=cfg.data.min_count, clip=cfg.data.clip, blind=cfg.data.blind
    )
    mcfg = replace(cfg.model, class_names=schema.class_names)
    mcfg.validate()
    params = model.init_params(mcfg, vocab.n_tokens, vocab.n_positions)
    if cfg.embeddings:
        _require_file(cfg.embeddings, "embeddings")
        vectors, _ = data_mod.load_pretrained_embeddings(cfg.embeddings)
        data_mod.apply_pretrained(params.values["embed.word"], vocab, vectors)
    adam = optim.AdamState(params, lr=cfg.train.lr)

    train = data_mod.encode(train_samples, vocab, mcfg.k)
    skipped = int(train.short.sum())
    if skipped:
        log.warning("skipping %d training samples shorter than the convolution window k=%d", skipped, mcfg.k)
    use_dev = dev_samples is not None and len(dev_samples) > 0
    scored = data_mod.encode(dev_samples, vocab, mcfg.k) if use_dev else train
    scores: List[float] = []
    best_params = params.copy()
    best_epoch = 0
    epochs_run = 0
    for epoch in range(1, cfg.train.max_epochs + 1):
        loss = optim.train_epoch(train, mcfg, params, adam, cfg.train, epoch)
        score = _micro_score(_score_corpus(scored, vocab, mcfg, params), vocab)
        scores.append(score)
        if log_rows is not None:
            log_rows.append(f"{epoch}\t{loss:.12f}\t{score:.12f}")
        epochs_run = epoch
        stop, best = optim.early_stop(scores, cfg.train.patience)
        if best == epoch:
            best_params = params.copy()
            best_epoch = epoch
        if use_dev and stop:
            break
    final = best_params if use_dev else params
    meta = {
        "pairs_enumerated": len(train_samples),
        "skipped_short": skipped,
        "epochs_run": epochs_run,
        "best_epoch": best_epoch if use_dev else epochs_run,
        "dev_used": use_dev,
    }
    return mcfg, final, vocab, meta


def _split_dev(samples: List[RelationSample], fraction: float, seed: int):
    if fraction <= 0.0:
        return samples, None
    folds = max(2, round(1.0 / fraction))
    assignment = data_mod.make_folds(samples, folds, seed)
    train = [s for s, f in zip(samples, assignment) if f != 0]
    dev = [s for s, f in zip(samples, assignment) if f == 0]
    return train, dev


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.model.seed = args.seed
        cfg.train.shuffle_seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    schema, samples = _load_training_data(cfg)

    if cfg.dev_corpus:
        _require_file(cfg.dev_corpus, "dev corpus")
        dev_sentences = data_mod.parse_corpus(cfg.dev_corpus)
        dev = data_mod.corpus_samples(dev_sentences, schema, clip=cfg.data.clip, blind=cfg.data.blind)
        train = samples
    else:
        train, dev = _split_dev(samples, cfg.train.dev_fraction, cfg.train.shuffle_seed)

    os.makedirs(cfg.out_dir, exist_ok=True)
    log_rows: List[str] = []
    mcfg, params, vocab, meta = train_model(cfg, train, schema, dev_samples=dev, log_rows=log_rows)

    with open(os.path.join(cfg.out_dir, "train_log.tsv"), "w", encoding="utf-8") as fh:
        fh.write("epoch\tloss\tdev_f1\n")
        fh.write("\n".join(log_rows) + "\n")
    with open(os.path.join(cfg.out_dir, "train_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    model.checkpoint_save(os.path.join(cfg.out_dir, "checkpoint.bin"), mcfg, params, vocab)
    print(f"trained {meta['epochs_run']} epochs; skipped {meta['skipped_short']} short samples")
    print(f"checkpoint: {os.path.join(cfg.out_dir, 'checkpoint.bin')}")
    return 0


def cmd_cv(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.model.seed = args.seed
        cfg.train.shuffle_seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.folds < 2:
        raise ConfigError("cv needs at least 2 folds")
    schema, samples = _load_training_data(cfg)
    assignment = data_mod.make_folds(samples, args.folds, cfg.train.shuffle_seed)

    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = []
    scores = []
    for fold in range(args.folds):
        train = [s for s, f in zip(samples, assignment) if f != fold]
        held = [s for s, f in zip(samples, assignment) if f == fold]
        fold_cfg = replace(
            cfg,
            model=replace(cfg.model, seed=cfg.model.seed ^ (fold + 1)),
            train=replace(cfg.train, shuffle_seed=cfg.train.shuffle_seed ^ (fold + 1)),
        )
        mcfg, params, vocab, _ = train_model(fold_cfg, train, schema)
        score = _micro_score(predict_records(held, vocab, mcfg, params), vocab)
        scores.append(score)
        rows.append(f"{fold}\t{score:.12f}")
        print(f"fold {fold}: micro-F1 {score:.1f}")
    mean = float(np.mean(scores))
    rows.append(f"mean\t{mean:.12f}")
    print(f"mean micro-F1 {mean:.1f}")
    with open(os.path.join(cfg.out_dir, "cv_results.tsv"), "w", encoding="utf-8") as fh:
        fh.write("fold\tmicro_f1\n")
        fh.write("\n".join(rows) + "\n")
    return 0


def _eval_records(args: argparse.Namespace):
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.corpus, "corpus")
    _require_file(args.schema, "schema")
    mcfg, params, vocab = model.checkpoint_load(args.checkpoint)
    schema = data_mod.load_schema(args.schema)
    if schema.class_names != vocab.class_names:
        raise ConfigError(
            "schema classes do not match the checkpoint "
            f"({schema.class_names} vs {vocab.class_names})"
        )
    sentences = data_mod.parse_corpus(args.corpus)
    samples = data_mod.corpus_samples(sentences, schema, clip=vocab.clip, blind=vocab.blind)
    if not samples:
        raise InputError(f"{args.corpus}: no relation samples found")
    records = predict_records(samples, vocab, mcfg, params)
    print(f"scored {len(records)} of {len(samples)} pairs")
    return records, schema, vocab


def cmd_eval(args: argparse.Namespace) -> int:
    records, schema, vocab = _eval_records(args)
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_predictions_tsv(os.path.join(args.out, "predictions.tsv"), records)
    report = evaluation.build_report(
        records,
        schema.class_to_category,
        vocab.positive_classes,
        with_ci=args.ci,
        seed=args.seed if args.seed is not None else 0,
    )
    evaluation.write_report_json(os.path.join(args.out, "report.json"), report)
    text = evaluation.format_report(report)
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(args.out, "distance_curve.tsv"), "w", encoding="utf-8") as fh:
        fh.write("distance\tf1\n")
        for pt in report["distance_curve"]:
            fh.write(f"{pt['distance']}\t{pt['f1']:.12f}\n")
    print(text, end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    records, _, _ = _eval_records(args)
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_predictions_tsv(os.path.join(args.out, "predictions.tsv"), records)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = gradcheck.run_gradcheck(seed=args.seed if args.seed is not None else 0)
    failures = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:<18} max rel err {res.max_rel_error:.3e}")
        if not res.passed:
            failures.append(res.name)
    if failures:
        print(f"gradient check failed for: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbgru", description="Convolutional bidirectional-GRU relation classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON run config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--out")
    p_train.set_defaults(func=cmd_train)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation on the training corpus")
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--seed", type=int)
    p_cv.add_argument("--out")
    p_cv.set_defaults(func=cmd_cv)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--schema", required=True)
    p_eval.add_argument("--ci", action="store_true", help="add bootstrap confidence intervals")
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out", default="out")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="write predictions for a corpus")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--corpus", required=True)
    p_pred.add_argument("--schema", required=True)
    p_pred.add_argument("--out", default="out")
    p_pred.set_defaults(func=cmd_predict)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p_gc.add_argument("--seed", type=int)
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ParseError, InputError, DataError, FormatError, NumericError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
