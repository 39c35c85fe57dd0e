"""Reference values of seeded runs, so that "the same numbers" is a test.

For C-BGRU-Max, C-BGRU-Att and the CNN baseline, ``collect`` runs one
seeded 2-epoch ``cbgru train`` plus ``cbgru eval --ci`` at small dims on an
i2b2-style synthetic corpus, and gathers every loss, dev F1 and gradient
norm, every predicted label, the probabilities of the first eval samples
and every ``report.json`` figure. ``tests/test_reference_values.py``
compares a fresh run with the committed ``reference_values.json``.

A change that moves numbers on purpose regenerates the file:

    PYTHONPATH=src python tests/reference_values.py

and says what moved, and by how much, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from cbgru import cli, data, model

sys.path.insert(0, str(Path(__file__).resolve().parent))
from synthdata import SIMPLE_SCHEMA, make_separable_corpus, write_jsonl, write_schema  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference_values.json"
SEED = 3
N_PROBS = 6  # eval samples whose probabilities are kept
VARIANTS = {
    "cbgru_max": {"use_gru": True, "pooling": "max"},
    "cbgru_att": {"use_gru": True, "pooling": "attentive"},
    "cnn": {"use_gru": False, "pooling": "max"},
}


def _run_variant(root: Path, name: str, switches: dict) -> dict:
    out, scored = root / name / "train", root / name / "eval"
    config = {
        "corpus": str(root / "train.jsonl"),
        "schema": str(root / "schema.json"),
        "model": {"d_w": 8, "d_p": 3, "d_c": 10, "d_h": 6, "k": 3, **switches},
        "train": {"max_epochs": 2, "patience": 2, "batch_size": 16},
    }
    config_path = root / f"{name}.json"
    config_path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["train", "--config", str(config_path), "--seed", str(SEED), "--out", str(out)]) != 0:
            raise RuntimeError(f"{name}: train failed")
        eval_args = ["--checkpoint", str(out / "checkpoint.bin"), "--corpus", str(root / "eval.jsonl"),
                     "--schema", str(root / "schema.json"), "--ci", "--seed", str(SEED), "--out", str(scored)]
        if cli.main(["eval", *eval_args]) != 0:
            raise RuntimeError(f"{name}: eval failed")

    log = [line.split("\t") for line in (out / "train_log.tsv").read_text().splitlines()[1:]]
    epochs = json.loads((out / "timings.json").read_text())["epochs"]
    predictions = [line.split("\t") for line in (scored / "predictions.tsv").read_text().splitlines()[1:]]

    mcfg, params, vocab = model.checkpoint_load(str(out / "checkpoint.bin"))
    schema = data.load_schema(str(root / "schema.json"))
    samples = data.corpus_samples(data.parse_corpus(str(root / "eval.jsonl")), schema, clip=vocab.clip, blind=vocab.blind)
    batches, _ = data.batchify(data.encode(samples[:N_PROBS], vocab, mcfg.k), np.arange(N_PROBS), N_PROBS)
    _, probs = model.predict(batches[0], mcfg, params)
    return {
        "loss": [float(row[1]) for row in log],
        "dev_f1": [float(row[2]) for row in log],
        "grad_norm": [e["grad_norm"] for e in epochs],
        "predicted": [row[2] for row in predictions],
        "probs": probs.tolist(),
        "report": json.loads((scored / "report.json").read_text()),
    }


def collect(root: Path) -> dict:
    """Reference values of every variant, from runs under the directory ``root``."""
    write_jsonl(str(root / "train.jsonl"), make_separable_corpus(n_samples=160, seed=11))
    write_jsonl(str(root / "eval.jsonl"), make_separable_corpus(n_samples=120, seed=12))
    write_schema(str(root / "schema.json"), SIMPLE_SCHEMA)
    return {name: _run_variant(root, name, switches) for name, switches in VARIANTS.items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        values = collect(Path(tmp))
    REFERENCE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
