"""Seeded input fuzzer. Each mutation of an input, and each unusable path
the CLI reads or writes, runs through ``main``. A run must exit 0, or exit
2 with ``error: `` on stderr; any other exit code, or an exception out of
``main``, is a finding, and the test lists every finding it made. The suite
turns warnings into errors, so a warning also escapes ``main``; only the one
an embeddings header with the wrong vector count raises is expected."""

import copy
import json
import math
import operator
import re
import zlib
from functools import reduce

import pytest

from cbgru import model
from cbgru.cli import main
from cbgru.data import make_rng

from synthdata import SIMPLE_SCHEMA, make_separable_corpus, write_jsonl, write_schema

MUTATIONS = 100  # per input kind
# what a mutation puts in place of one JSON node; a mutation may also delete the node
VALUES = [None, True, 1.5, -1, 0, "", "x", [], {}, [1], {"a": 1}, 10**20, math.nan]
# the fixture's embeddings file holds 3 vectors
HEADER_WARNING = re.compile(r".*emb\.txt: header promised -?\d+ vectors, found 3")


def _nodes(obj, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def mutate(obj, rng):
    """A copy of the JSON value ``obj`` with one node, drawn from ``rng``,
    replaced by one of VALUES or deleted; the root is only replaced."""
    paths = list(_nodes(obj))
    path = paths[int(rng.integers(len(paths)))]
    choice = int(rng.integers(len(VALUES) + bool(path)))
    if not path:
        return VALUES[choice]
    obj = copy.deepcopy(obj)
    parent = reduce(operator.getitem, path[:-1], obj)
    if choice == len(VALUES):
        del parent[path[-1]]
    else:
        parent[path[-1]] = VALUES[choice]
    return obj


def outcome(argv, capsys):
    """None if ``main(argv)`` exits 0, or 2 with ``error: `` on stderr, or
    raises the embeddings header warning; else what it did instead."""
    try:
        code = main(argv)
    except Exception as exc:  # the escape is the finding, so it is returned, not raised
        if isinstance(exc, UserWarning) and HEADER_WARNING.fullmatch(str(exc)):
            return None
        return f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    return None if code == 0 or (code == 2 and "error: " in err) else f"exit {code}, stderr {err!r}"


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A toy run config over a corpus, a dev corpus, a schema and an
    embeddings file, and the checkpoint it trains. The working directory
    is ``tmp_path``, so a relative path that a mutation writes lands there."""
    monkeypatch.chdir(tmp_path)
    paths = {name: str(tmp_path / name) for name in ("corpus.jsonl", "dev.jsonl", "schema.json", "emb.txt", "run.json")}
    write_jsonl(paths["corpus.jsonl"], make_separable_corpus(n_samples=16, vocab_size=12, seed=0))
    write_jsonl(paths["dev.jsonl"], make_separable_corpus(n_samples=8, vocab_size=12, seed=1))
    write_schema(paths["schema.json"], SIMPLE_SCHEMA)
    with open(paths["emb.txt"], "w", encoding="utf-8") as fh:
        fh.write("3 4\nw0 0.1 0.2 0.3 0.4\nw1 -0.5 0 1.5 2\nimproves 1 1 1 1\n")
    config = {
        "corpus": paths["corpus.jsonl"],
        "schema": paths["schema.json"],
        "dev_corpus": paths["dev.jsonl"],
        "embeddings": paths["emb.txt"],
        "out_dir": "out",
        "model": {"d_w": 4, "d_p": 2, "d_c": 4, "d_h": 3, "k": 2, "seed": 1},
        # the dev set bounds the epochs, so a mutated max_epochs stops on patience
        "train": {"max_epochs": 2, "batch_size": 8, "patience": 1},
        "data": {"clip": 10},
    }
    with open(paths["run.json"], "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    assert main(["train", "--config", paths["run.json"]]) == 0
    paths["checkpoint"] = str(tmp_path / "out" / "checkpoint.bin")
    return paths, config


def _scoring(paths, checkpoint):
    return ["predict", "--checkpoint", checkpoint, "--corpus", paths["corpus.jsonl"], "--schema", paths["schema.json"]]


def _mutated_files(kind, paths, config, rng):
    """The path and the text or bytes of one mutated input of ``kind``, and
    the argv that reads it."""
    train = ["train", "--config", paths["run.json"]]
    if kind == "run_config":
        return paths["run.json"], json.dumps(mutate(config, rng)), train
    if kind == "schema":
        return paths["schema.json"], json.dumps(mutate(SIMPLE_SCHEMA, rng)), train
    if kind == "corpus_line":
        with open(paths["corpus.jsonl"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        i = int(rng.integers(len(lines)))
        lines[i] = json.dumps(mutate(json.loads(lines[i]), rng))
        return paths["corpus.jsonl"], "\n".join(lines) + "\n", train
    if kind == "embeddings_line":
        with open(paths["emb.txt"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        i = int(rng.integers(len(lines)))
        fields = lines[i].split(" ")
        j, choice = int(rng.integers(len(fields))), int(rng.integers(len(VALUES) + 1))
        fields[j : j + 1] = [json.dumps(VALUES[choice])] if choice < len(VALUES) else []
        lines[i] = " ".join(fields)
        return paths["emb.txt"], "\n".join(lines) + "\n", train
    # the checkpoint with its manifest mutated, its length and the CRC recomputed
    with open(paths["checkpoint"], "rb") as fh:
        raw = fh.read()
    magic, head = len(model.CHECKPOINT_MAGIC), len(model.CHECKPOINT_MAGIC) + 8
    end = head + int.from_bytes(raw[magic:head], "little")
    blob = json.dumps(mutate(json.loads(raw[head:end]), rng), sort_keys=True).encode("utf-8")
    body = raw[:magic] + len(blob).to_bytes(8, "little") + blob + raw[end:-4]
    return paths["checkpoint"], body + zlib.crc32(body).to_bytes(4, "little"), _scoring(paths, paths["checkpoint"])


@pytest.mark.parametrize("kind", ["corpus_line", "schema", "run_config", "embeddings_line", "checkpoint_manifest"])
def test_mutated_input(inputs, capsys, kind):
    paths, config = inputs
    rng = make_rng(sum(map(ord, kind)))
    findings = []
    for n in range(MUTATIONS):
        path, content, argv = _mutated_files(kind, paths, config, rng)
        with open(path, "rb") as fh:
            original = fh.read()
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
        found = outcome(argv, capsys)
        if found:
            findings.append(f"mutation {n}: {content[:300]!r}: {found}")
        with open(path, "wb") as fh:
            fh.write(original)
    assert findings == []


# every path the CLI reads or writes: its flags, and the run config's path keys
PATHS = ["--config", "corpus", "schema", "dev_corpus", "embeddings", "--checkpoint", "--out"]


@pytest.mark.parametrize("case", ["missing", "empty", "directory"])
@pytest.mark.parametrize("key", PATHS)
def test_unusable_path(inputs, capsys, tmp_path, key, case):
    paths, config = inputs
    bad = {"missing": str(tmp_path / "missing"), "empty": "", "directory": str(tmp_path / "dir")}[case]
    (tmp_path / "dir").mkdir()
    if key in config:
        with open(paths["run.json"], "w", encoding="utf-8") as fh:
            json.dump({**config, key: bad}, fh)
    runs = {
        "--config": [["train", "--config", bad]],
        "--checkpoint": [_scoring(paths, bad)],
        "--out": [["train", "--config", paths["run.json"], "--out", bad], _scoring(paths, paths["checkpoint"]) + ["--out", bad]],
    }.get(key, [["train", "--config", paths["run.json"]]])
    # an --out that is missing is created and a directory is written into;
    # an empty dev_corpus or embeddings path means the file is not given
    expect_ok = (key == "--out" and case != "empty") or (key in ("dev_corpus", "embeddings") and case == "empty")
    for argv in runs:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == (0 if expect_ok else 2), err
        if not expect_ok:
            assert err.startswith("error: ") and (repr(bad) in err or f"{paths['run.json']}: {key} must be set" in err), err
