"""The paper's second setting is the DDI 2013 drug-drug interaction task:
four drug types, every type pair in play (same-type pairs too), four
positive labels under one category and mostly negative pairs. This runs
that shape end to end on synthetic data (``synthdata.make_ddi_corpus``);
it claims nothing about the paper's DDI scores. The micro-F1 bound was
fixed before the first run."""

import pytest

from cbgru import cli, data, evaluation, optim
from cbgru.model import ModelConfig

from synthdata import DDI_SCHEMA, make_ddi_corpus, write_jsonl

SCHEMA = data.PairSchema.from_dict(DDI_SCHEMA)
VARIANTS = {
    "cbgru_max": dict(pooling="max", use_gru=True),
    "cbgru_att": dict(pooling="attentive", use_gru=True),
    "cnn": dict(pooling="max", use_gru=False),
}
MIN_MICRO_F1 = 75.0


def _samples(tmp_path, name, n_sentences, seed):
    path = str(tmp_path / name)
    write_jsonl(path, make_ddi_corpus(n_sentences, seed=seed))
    return data.corpus_samples(data.parse_corpus(path), SCHEMA)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ddi_shape_end_to_end(tmp_path, variant):
    train, test = _samples(tmp_path, "train.jsonl", 200, 0), _samples(tmp_path, "test.jsonl", 100, 1)
    assert sum(s.label == "false" for s in train) > len(train) / 2
    cfg = cli.RunConfig(
        model=ModelConfig(d_w=8, d_p=3, d_c=16, d_h=8, k=3, dropout_p=0.0, seed=0, **VARIANTS[variant]),
        train=optim.TrainSchedule(max_epochs=10, batch_size=16, patience=10),
        data=cli.DataConfig(clip=10),
    )
    mcfg, params, vocab, _ = cli.train_model(cfg, train, SCHEMA)
    report = evaluation.build_report(
        cli.predict_records(test, vocab, mcfg, params), SCHEMA.class_to_category, vocab.positive_classes
    )
    assert list(report["classes"]) == ["advise", "effect", "mechanism", "int"]
    assert list(report["categories"]) == ["DDI"]
    assert report["micro"]["f1"] >= MIN_MICRO_F1, report["micro"]


@pytest.mark.parametrize("clip", [1, 50])
def test_pairs_of_one_sentence_encode_apart(tmp_path, clip):
    # under blind "all" the pairs of a sentence share their tokens, so only
    # the position features can tell two pairs of one type pair apart
    samples = _samples(tmp_path, "corpus.jsonl", 100, 2)
    corpus = data.encode(samples, data.build_vocab(samples, SCHEMA, clip=clip), k=3)
    by_sentence = {}
    for i, s in enumerate(samples):
        types = tuple(sorted((s.tokens[s.c1_index], s.tokens[s.c2_index])))
        block = corpus.ids[:, corpus.offsets[i] : corpus.offsets[i + 1]].tobytes()
        by_sentence.setdefault(s.sample_id.split(":")[0], []).append((types, block))
    same_type = 0
    for pairs in by_sentence.values():
        types, blocks = zip(*pairs)
        assert len(set(blocks)) == len(blocks)
        same_type += len(types) - len(set(types))
    assert same_type > 0  # pairs of one type pair share a sentence somewhere
