"""The paper adds the biGRU to capture dependencies that the CNN's
phrase-level features miss. This checks that mechanism on synthetic data
(``synthdata.make_order_corpus``): the label is the order of two cue tokens
that no convolution window holds together, and the position features are
off. The biGRU variants must learn it; the CNN baseline must stay near
chance. The thresholds were fixed before the first run."""

import pytest

from cbgru import cli, data, optim
from cbgru.model import ModelConfig

from synthdata import ORDER_SCHEMA, make_order_corpus, write_jsonl

VARIANTS = {
    "cbgru_max": (dict(pooling="max", use_gru=True), 0.95, 1.0),
    "cbgru_att": (dict(pooling="attentive", use_gru=True), 0.95, 1.0),
    "cnn": (dict(pooling="max", use_gru=False), 0.0, 0.65),
}


def _samples(tmp_path, name, n_sentences, seed):
    path = str(tmp_path / name)
    write_jsonl(path, make_order_corpus(n_sentences, k=3, seed=seed))
    return data.corpus_samples(data.parse_corpus(path), data.PairSchema.from_dict(ORDER_SCHEMA))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_only_the_bigru_reads_cue_order(tmp_path, variant):
    arch, low, high = VARIANTS[variant]
    train, test = _samples(tmp_path, "train.jsonl", 300, 0), _samples(tmp_path, "test.jsonl", 100, 1)
    assert (len(train), len(test)) == (300, 100)
    cfg = cli.RunConfig(
        model=ModelConfig(d_w=8, d_p=3, d_c=16, d_h=8, k=3, dropout_p=0.0, seed=0, **arch),
        train=optim.TrainSchedule(max_epochs=15, batch_size=16, patience=15),
        data=cli.DataConfig(clip=0),
    )
    mcfg, params, vocab, _ = cli.train_model(cfg, train, data.PairSchema.from_dict(ORDER_SCHEMA))
    records = cli.predict_records(test, vocab, mcfg, params)
    accuracy = sum(r.gold == r.pred for r in records) / len(records)
    assert low <= accuracy <= high, accuracy
