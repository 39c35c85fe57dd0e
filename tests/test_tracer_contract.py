"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module attribute. These tests keep the names and call paths it relies on
working, so that a rename fails here and not only in the benchmark run."""

import importlib.util
from pathlib import Path

from cbgru import cli, data, layers, model, optim
from cbgru.data import PairSchema, RelationSample, Vocab

from synthdata import SIMPLE_SCHEMA, make_separable_corpus, write_jsonl

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    for owner, attr, name, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} (span {name})"


def test_cbgru_forward_backward_traced():
    tracer = load_tracer()
    classes = ["A", "B", "C"]
    vocab = Vocab(tokens=[f"w{i}" for i in range(10)], clip=6, class_names=classes, positive_classes=classes[:2])
    cfg = model.ModelConfig(d_w=6, d_p=2, d_c=5, d_h=4, k=3, dropout_p=0.0, seed=3, class_names=classes)
    params = model.init_params(cfg, vocab.n_tokens, vocab.n_positions)
    samples = []
    for n, label in zip((7, 3, 5), classes):
        tokens = [f"w{(3 * i) % 10}" for i in range(n)]
        samples.append(RelationSample(tokens, 0, n - 1, label))

    original = layers.gru_step
    t = tracer.Tracer()
    with t.installed():
        (batch,), _ = data.batchify(data.encode(samples, vocab, cfg.k), range(3), batch_size=3)
        model.backward(model.forward(batch, cfg, params), params)
    assert layers.gru_step is original
    # the batchify and forward hooks read the batch's size
    assert t.counts["data.encoded"] == batch.size == 3
    assert t.counts["model.forward.samples"] == 3

    names = {span[0] for span in t.spans}
    assert {"layers.bigru.fwd", "layers.bigru.bwd"} <= names
    # one call per packed batch step and direction: the longest sample has
    # 7 - k + 1 conv columns
    assert t.counts["layers.gru_step"] == 2 * (7 - cfg.k + 1)
    assert t.check_nesting() == []


def test_fields_read_by_workloads(tmp_path):
    # perfbench/workloads.py reads meta["skipped_short"] and meta["epochs_run"],
    # and the tracer's batchify hook unpacks a (batches, skipped) pair
    short = {
        "id": "short",
        "tokens": ["w0", "w1"],
        "concepts": [
            {"id": "c1", "start": 0, "end": 0, "type": "treatment"},
            {"id": "c2", "start": 1, "end": 1, "type": "problem"},
        ],
        "relations": [],
    }
    path = tmp_path / "corpus.jsonl"
    write_jsonl(str(path), make_separable_corpus(n_samples=6, seed=0) + [short])
    schema = PairSchema.from_dict(SIMPLE_SCHEMA)
    samples = data.corpus_samples(data.parse_corpus(str(path)), schema)
    assert min(len(s.tokens) for s in samples) < 3
    cfg = cli.RunConfig(
        model=model.ModelConfig(d_w=4, d_p=2, d_c=3, d_h=3, k=3, seed=0),
        train=optim.TrainSchedule(max_epochs=1, patience=1, batch_size=4),
    )
    _, _, vocab, meta = cli.train_model(cfg, samples, schema)
    assert meta["skipped_short"] == 0 and meta["epochs_run"] == 1

    out = data.batchify(data.encode(samples, vocab, 3), range(len(samples) - 1), batch_size=4)
    assert isinstance(out, tuple) and len(out) == 2
    batches, skipped = out
    assert skipped == 1 and sum(b.size for b in batches) == len(samples) - 1


def test_corpus_samples_call_made_by_workloads(tmp_path):
    # perfbench/workloads.py calls corpus_samples(sentences, schema,
    # clip=..., blind=...), and check_coverage reads each sample's tokens,
    # label and sample_id; clip is accepted but ignored, since encode clips
    # with the vocabulary's clip
    path = tmp_path / "corpus.jsonl"
    write_jsonl(str(path), make_separable_corpus(n_samples=6, seed=0))
    schema = PairSchema.from_dict(SIMPLE_SCHEMA)
    sentences = data.parse_corpus(str(path))
    samples = data.corpus_samples(sentences, schema, clip=3, blind="targets")
    assert samples and samples == data.corpus_samples(sentences, schema, blind="targets")
    for s in samples:
        assert isinstance(s.tokens, list) and len(s.tokens) >= 2
        assert s.label in schema.class_names
    assert len({s.sample_id for s in samples}) == len(samples)
