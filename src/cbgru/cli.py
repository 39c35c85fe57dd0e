"""Command-line surface: train, cv, eval, predict, gradcheck.

Exit codes: 0 success, 1 check/assertion failure, 2 usage or config error.
All artifacts land under the configured output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import data as data_mod
from . import evaluation, gradcheck, model, optim
from .data import (
    ConfigError,
    DataError,
    InputError,
    NumericError,
    PairSchema,
    ParseError,
    RelationSample,
    Vocab,
    check_blind,
    check_int,
    check_str,
)
from .evaluation import PredictionRecord
from .model import FormatError, ModelConfig, ParamSet

SCORE_COLUMNS = 1024  # encoded columns per batch when scoring a corpus


@dataclass
class DataConfig:
    clip: int = 50
    blind: str = "all"
    min_count: int = 1

    def validate(self) -> None:
        check_int("clip", self.clip, 0)
        check_int("min_count", self.min_count, 1)
        check_blind(self.blind)


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

    def validate(self) -> None:
        for name in ("corpus", "schema", "out_dir"):
            check_str(name, getattr(self, name))
            if not getattr(self, name):
                raise ConfigError(f"{name} must be set")
        for name in ("dev_corpus", "embeddings"):
            check_str(name, getattr(self, name), optional=True)
        if self.dev_corpus and self.train.dev_fraction > 0:
            raise ConfigError("dev_corpus and a train.dev_fraction above 0 exclude each other")


def load_run_config(path: str) -> RunConfig:
    """The run config in a JSON file. The ``model``, ``train`` and ``data``
    sections, then the config itself, go through ``data.from_section``, so
    an error names the file and the section (``run.json: model: ...``). An
    omitted key or section takes its default. The model's class names come
    from the schema, so the ``model`` section may not set them."""
    obj = data_mod.read_json(path)
    if isinstance(obj, dict):
        if isinstance(obj.get("model"), dict) and "class_names" in obj["model"]:
            raise ConfigError(f"{path}: model: class_names is taken from the schema and cannot be set")
        for name, cls in (("model", ModelConfig), ("train", optim.TrainSchedule), ("data", DataConfig)):
            obj[name] = data_mod.from_section(cls, obj.get(name, {}), f"{path}: {name}")
    return data_mod.from_section(RunConfig, obj, path)


def _write(out_dir: str, name: str, text: str) -> None:
    """Writes the artifact ``name`` under ``out_dir`` as UTF-8 text."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _json(obj) -> str:
    """A JSON artifact's text: indented, with sorted keys."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _tsv(header: str, rows: Iterable[str]) -> str:
    """A TSV artifact's text: the header line, then one line per row."""
    return "".join(f"{line}\n" for line in [header, *rows])


def _score_corpus(
    corpus: data_mod.EncodedCorpus, vocab: Vocab, cfg: ModelConfig, params: ParamSet
) -> List[PredictionRecord]:
    """One prediction per encoded sample, in corpus order. Batches take the
    samples in a stable order of encoded width, so a batch's biGRU runs
    about as many steps as each of its samples needs. A batch closes before
    the sample that would take it past ``SCORE_COLUMNS`` columns, and a
    wider sample is scored alone, so the arrays of a forward pass are sized
    by the budget, not by the corpus's longest samples. The predictions are
    written back to the samples' corpus positions."""
    widths = np.diff(corpus.offsets)
    order = np.argsort(widths, kind="stable")
    ends = np.cumsum(widths[order])
    preds = np.zeros(len(corpus), dtype=np.int64)
    lo = 0
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + SCORE_COLUMNS, side="right")))
        idx = order[lo:hi]
        preds[idx] = model.predict(data_mod.gather(corpus, idx), cfg, params)[0]
        lo = hi
    return [
        PredictionRecord(sample_id, vocab.class_names[gold], vocab.class_names[pred], distance)
        for sample_id, gold, pred, distance in zip(
            corpus.sample_ids, corpus.labels.tolist(), preds.tolist(), corpus.distances
        )
    ]


def predict_records(
    samples: Sequence[RelationSample], vocab: Vocab, cfg: ModelConfig, params: ParamSet
) -> List[PredictionRecord]:
    """One prediction per sample, in corpus order; samples shorter than the
    convolution window are scored padded with PAD."""
    return _score_corpus(data_mod.encode(samples, vocab, cfg.k), vocab, cfg, params)


def _load_samples(path: str, schema: PairSchema, blind: str) -> List[RelationSample]:
    """The relation samples of the corpus at ``path``; a corpus with no
    in-schema pair raises InputError, and an annotation error DataError,
    naming the file."""
    try:
        samples = data_mod.corpus_samples(data_mod.parse_corpus(path), schema, blind=blind)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not samples:
        raise InputError(f"{path}: no relation samples found")
    return samples


def _load_training_data(cfg: RunConfig):
    """The schema, the training samples and the ``dev_corpus`` samples
    (None without a dev corpus)."""
    schema = data_mod.load_schema(cfg.schema)
    samples = _load_samples(cfg.corpus, schema, cfg.data.blind)
    return schema, samples, _load_samples(cfg.dev_corpus, schema, cfg.data.blind) if cfg.dev_corpus else None


def train_model(
    cfg: RunConfig,
    train_samples: Sequence[RelationSample],
    schema: PairSchema,
    dev_samples: Optional[Sequence[RelationSample]] = None,
    log_rows: Optional[List[str]] = None,
    timings: Optional[List[dict]] = None,
):
    """Shared training loop; returns (model_cfg, params, vocab, meta).
    ``timings`` gets one entry per epoch: its wall seconds (training plus
    scoring), the seconds spent training, the training samples/s and the
    mean over its Adam steps of the global gradient norm."""
    cfg.train.validate()
    cfg.data.validate()
    vocab = data_mod.build_vocab(
        train_samples, schema, min_count=cfg.data.min_count, clip=cfg.data.clip, blind=cfg.data.blind
    )
    mcfg = replace(cfg.model, class_names=schema.class_names)
    params = model.init_params(mcfg, vocab.n_tokens, vocab.n_positions)
    if cfg.embeddings:
        data_mod.load_pretrained(cfg.embeddings, params.values["embed.word"], vocab)
    adam = optim.AdamState(params, lr=cfg.train.lr)

    train = data_mod.encode(train_samples, vocab, mcfg.k)
    use_dev = dev_samples is not None and len(dev_samples) > 0
    scored = data_mod.encode(dev_samples, vocab, mcfg.k) if use_dev else train
    # only a dev-selected epoch needs a copy; without dev the last epoch's parameters are returned
    final, best_epoch, best = params, 0, -np.inf
    for epoch in range(1, cfg.train.max_epochs + 1):
        start, first_step = time.perf_counter(), len(adam.grad_norms)
        loss = optim.train_epoch(train, mcfg, params, adam, cfg.train, epoch)
        train_s = time.perf_counter() - start
        # an epoch is scored only for dev selection or the log, so a cv fold without a dev set takes no score
        if use_dev or log_rows is not None:
            score = evaluation.micro_f1(_score_corpus(scored, vocab, mcfg, params), vocab.positive_classes)[2]
        if timings is not None:
            wall_s = time.perf_counter() - start
            timings.append({
                "epoch": epoch, "wall_s": wall_s, "train_s": train_s, "samples_per_s": len(train) / train_s,
                "grad_norm": float(np.mean(adam.grad_norms[first_step:])),
            })
        if log_rows is not None:
            log_rows.append(f"{epoch}\t{loss:.12f}\t{score:.12f}")
        if not use_dev:
            best_epoch = epoch
        elif score > best:  # strictly greater, so ties keep the earliest epoch
            final, best_epoch, best = params.copy(), epoch, score
        elif epoch - best_epoch >= cfg.train.patience:
            break
    meta = {
        "pairs_enumerated": len(train_samples),
        # always 0 since short pairs train padded; kept for readers of the file
        "skipped_short": 0,
        "epochs_run": epoch,
        "best_epoch": best_epoch,
        "dev_used": use_dev,
    }
    return mcfg, final, vocab, meta


def _hold_out(samples: Sequence[RelationSample], assignment: np.ndarray, fold: int):
    """The samples outside ``fold`` of the fold ``assignment``, and the samples in it."""
    held = assignment == fold
    return [s for s, h in zip(samples, held) if not h], [s for s, h in zip(samples, held) if h]


def _split_dev(samples: List[RelationSample], dev: Optional[List[RelationSample]], cfg: RunConfig):
    """The training and dev samples of a run: ``dev``, the dev corpus, when
    given, else a ``dev_fraction`` fold of ``samples`` held out under the
    run's shuffle seed, else no dev set (None)."""
    fraction = cfg.train.dev_fraction
    if dev is not None or fraction <= 0.0:
        return samples, dev
    return _hold_out(samples, data_mod.make_folds(samples, round(1.0 / fraction), cfg.train.shuffle_seed), 0)


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The run config at ``--config``, with ``--seed`` and ``--out`` applied."""
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.model.seed = args.seed
        cfg.train.shuffle_seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    schema, samples, dev = _load_training_data(cfg)
    train, dev = _split_dev(samples, dev, cfg)

    os.makedirs(cfg.out_dir, exist_ok=True)
    log_rows: List[str] = []
    timings: List[dict] = []
    mcfg, params, vocab, meta = train_model(cfg, train, schema, dev_samples=dev, log_rows=log_rows, timings=timings)

    score = "dev_f1" if meta["dev_used"] else "train_f1"  # without a dev set each epoch scores the training set
    _write(cfg.out_dir, "train_log.tsv", _tsv(f"epoch\tloss\t{score}", log_rows))
    _write(cfg.out_dir, "train_meta.json", _json(meta))
    _write(cfg.out_dir, "timings.json", _json({"epochs": timings}))
    model.checkpoint_save(os.path.join(cfg.out_dir, "checkpoint.bin"), mcfg, params, vocab)
    print(f"trained {meta['epochs_run']} epochs")
    print(f"checkpoint: {os.path.join(cfg.out_dir, 'checkpoint.bin')}")
    return 0


def cmd_cv(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    if args.folds < 2:
        raise ConfigError("cv needs at least 2 folds")
    schema, samples, dev = _load_training_data(cfg)
    assignment = data_mod.make_folds(samples, args.folds, cfg.train.shuffle_seed)

    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = []
    scores = []
    for fold in range(args.folds):
        rest, held = _hold_out(samples, assignment, fold)
        fold_cfg = replace(
            cfg,
            model=replace(cfg.model, seed=cfg.model.seed ^ (fold + 1)),
            train=replace(cfg.train, shuffle_seed=cfg.train.shuffle_seed ^ (fold + 1)),
        )
        train, fold_dev = _split_dev(rest, dev, fold_cfg)
        mcfg, params, vocab, _ = train_model(fold_cfg, train, schema, dev_samples=fold_dev)
        score = evaluation.micro_f1(predict_records(held, vocab, mcfg, params), vocab.positive_classes)[2]
        scores.append(score)
        rows.append(f"{fold}\t{score:.12f}")
        print(f"fold {fold}: micro-F1 {score:.1f}")
    mean = float(np.mean(scores))
    rows.append(f"mean\t{mean:.12f}")
    print(f"mean micro-F1 {mean:.1f}")
    _write(cfg.out_dir, "cv_results.tsv", _tsv("fold\tmicro_f1", rows))
    return 0


def _predictions_tsv(records: Sequence[PredictionRecord]) -> str:
    rows = (f"{r.sample_id}\t{r.gold}\t{r.pred}\t{r.distance}" for r in records)
    return _tsv("sample_id\tgold\tpred\tdistance", rows)


def _eval_records(args: argparse.Namespace, timings: dict):
    """The checkpoint's predictions on the corpus, after ``--out`` is
    created. ``timings`` gets the seconds of the checkpoint load and of the
    scoring, and the pairs scored and pairs/s of the scoring."""
    os.makedirs(args.out, exist_ok=True)
    start = time.perf_counter()
    mcfg, params, vocab = model.checkpoint_load(args.checkpoint)
    timings["checkpoint_load_s"] = time.perf_counter() - start
    schema = data_mod.load_schema(args.schema)
    if schema.class_names != vocab.class_names:
        raise ConfigError(
            "schema classes do not match the checkpoint "
            f"({schema.class_names} vs {vocab.class_names})"
        )
    samples = _load_samples(args.corpus, schema, vocab.blind)
    start = time.perf_counter()
    records = predict_records(samples, vocab, mcfg, params)
    timings["score_s"] = time.perf_counter() - start
    timings["pairs_scored"] = len(records)
    timings["pairs_per_s"] = len(records) / timings["score_s"]
    print(f"scored {len(records)} of {len(samples)} pairs")
    return records, schema, vocab


def cmd_eval(args: argparse.Namespace) -> int:
    timings: dict = {}
    records, schema, vocab = _eval_records(args, timings)
    _write(args.out, "predictions.tsv", _predictions_tsv(records))
    start = time.perf_counter()
    report = evaluation.build_report(
        records,
        schema.class_to_category,
        vocab.positive_classes,
        with_ci=args.ci,
        seed=args.seed,
    )
    _write(args.out, "report.json", _json(report))
    text = evaluation.format_report(report)
    _write(args.out, "report.txt", text)
    curve = (f"{pt['distance']}\t{pt['f1']:.12f}" for pt in report["distance_curve"])
    _write(args.out, "distance_curve.tsv", _tsv("distance\tf1", curve))
    timings["report_s"] = time.perf_counter() - start
    _write(args.out, "timings.json", _json(timings))
    print(text, end="")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    timings: dict = {}
    records, _, _ = _eval_records(args, timings)
    _write(args.out, "predictions.tsv", _predictions_tsv(records))
    _write(args.out, "timings.json", _json(timings))
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = gradcheck.run_gradcheck(seed=args.seed)
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


def _seed(text: str) -> int:
    """The argparse type of every ``--seed``: the generators take no seed below 0."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbgru", description="Convolutional bidirectional-GRU relation classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=_seed)
    run.add_argument("--out")
    scoring = argparse.ArgumentParser(add_help=False)
    for name in ("--checkpoint", "--corpus", "--schema"):
        scoring.add_argument(name, required=True)
    scoring.add_argument("--out", default="out")

    sub.add_parser("train", parents=[run], help="train a model from a JSON run config").set_defaults(func=cmd_train)

    p_cv = sub.add_parser("cv", parents=[run], help="k-fold cross-validation on the training corpus")
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.set_defaults(func=cmd_cv)

    p_eval = sub.add_parser("eval", parents=[scoring], help="score a checkpoint on a corpus")
    p_eval.add_argument("--ci", action="store_true", help="add bootstrap confidence intervals")
    p_eval.add_argument("--seed", type=_seed, default=0)
    p_eval.set_defaults(func=cmd_eval)

    sub.add_parser("predict", parents=[scoring], help="write predictions for a corpus").set_defaults(func=cmd_predict)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p_gc.add_argument("--seed", type=_seed, default=0)
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    with warnings.catch_warnings():  # the default filter shows a message once per place; this resets that per run
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (ConfigError, ParseError, InputError, DataError, FormatError, NumericError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
