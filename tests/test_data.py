import json

import numpy as np
import pytest

from cbgru import data
from cbgru.data import (
    AnnotatedSentence,
    Concept,
    ConfigError,
    DataError,
    InputError,
    PairSchema,
    ParseError,
    Relation,
    batchify,
    blind_and_position,
    build_vocab,
    encode,
    enumerate_pairs,
    make_folds,
    parse_corpus,
)

from synthdata import SIMPLE_SCHEMA

TRP_SCHEMA = PairSchema.from_dict(
    {
        "pairs": [
            {"types": ["treatment", "problem"], "category": "TrP", "positive": ["TrAP"], "negative": "NTrP"},
            {"types": ["problem", "problem"], "category": "PP", "positive": ["PIP"], "negative": "NPP"},
        ]
    }
)


def figure_sentence():
    # "she was treated with steroids for this swelling at the outside
    # hospital , and these were continued ."
    tokens = (
        "she was treated with steroids for this swelling at the outside "
        "hospital , and these were continued ."
    ).split()
    return {
        "tokens": tokens,
        "concepts": [
            {"id": "c1", "start": 4, "end": 4, "type": "treatment"},
            {"id": "c2", "start": 6, "end": 7, "type": "problem"},
        ],
        "relations": [{"a": "c1", "b": "c2", "label": "TrAP"}],
    }


class TestParseCorpus:
    def test_clinical_sentence(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(figure_sentence()) + "\n")
        sentences = parse_corpus(str(path))
        assert len(sentences) == 1
        sent = sentences[0]
        assert len(sent.concepts) == 2
        assert sent.relations == [Relation("c1", "c2", "TrAP")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert parse_corpus(str(path)) == []

    def test_unknown_relation_endpoint(self, tmp_path):
        obj = figure_sentence()
        obj["relations"] = [{"a": "c1", "b": "missing", "label": "TrAP"}]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="missing"):
            parse_corpus(str(path))

    def test_span_out_of_range(self, tmp_path):
        obj = figure_sentence()
        obj["concepts"][0]["end"] = 99
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_corpus(str(path))

    def test_overlapping_spans_rejected(self, tmp_path):
        obj = figure_sentence()
        obj["concepts"][1]["start"] = 4
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="overlap"):
            parse_corpus(str(path))

    def test_invalid_json_names_line(self, tmp_path):
        good = json.dumps(figure_sentence())
        path = tmp_path / "mixed.jsonl"
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ParseError, match=":2: invalid JSON"):
            parse_corpus(str(path))


def _mk_sentence(tokens, concepts, relations=()):
    return AnnotatedSentence(
        tokens=tokens,
        concepts=[Concept(*c) for c in concepts],
        relations=[Relation(*r) for r in relations],
        sent_id="t1",
    )


class TestEnumeratePairs:
    def test_one_treatment_two_problems(self):
        sent = _mk_sentence(
            "a b T x P1 y P2".split(),
            [("c1", 2, 2, "treatment"), ("c2", 4, 4, "problem"), ("c3", 6, 6, "problem")],
            [("c1", "c2", "TrAP")],
        )
        samples = enumerate_pairs(sent, TRP_SCHEMA)
        labels = sorted(s.label for s in samples)
        assert labels == ["NPP", "NTrP", "TrAP"]

    def test_single_concept_no_samples(self):
        sent = _mk_sentence("a T b".split(), [("c1", 1, 1, "treatment")])
        assert enumerate_pairs(sent, TRP_SCHEMA) == []

    def test_out_of_schema_types_skipped(self):
        sent = _mk_sentence(
            "a T1 b T2".split(),
            [("c1", 1, 1, "treatment"), ("c2", 3, 3, "treatment")],
        )
        assert enumerate_pairs(sent, TRP_SCHEMA) == []

    def test_two_relations_on_one_pair_rejected(self):
        sent = _mk_sentence(
            "T x P".split(),
            [("c1", 0, 0, "treatment"), ("c2", 2, 2, "problem")],
            [("c1", "c2", "TrAP"), ("c2", "c1", "TrIP")],
        )
        with pytest.raises(DataError):
            enumerate_pairs(sent, TRP_SCHEMA)

    def test_sample_count_matches_brute_force(self):
        sent = _mk_sentence(
            "T1 a P1 b P2 c T2".split(),
            [
                ("c1", 0, 0, "treatment"),
                ("c2", 2, 2, "problem"),
                ("c3", 4, 4, "problem"),
                ("c4", 6, 6, "treatment"),
            ],
        )
        samples = enumerate_pairs(sent, TRP_SCHEMA)
        # brute force: in-schema unordered type pairs
        types = {"c1": "treatment", "c2": "problem", "c3": "problem", "c4": "treatment"}
        ids = list(types)
        expected = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if TRP_SCHEMA.lookup(types[ids[i]], types[ids[j]]) is not None
        )
        assert len(samples) == expected == 5


class TestBlinding:
    def test_figure_style_collapse(self):
        obj = figure_sentence()
        sent = _mk_sentence(
            obj["tokens"],
            [(c["id"], c["start"], c["end"], c["type"]) for c in obj["concepts"]],
            [("c1", "c2", "TrAP")],
        )
        sample = enumerate_pairs(sent, TRP_SCHEMA)[0]
        assert sample.tokens[sample.c1_index] == "TREATMENT"
        assert sample.tokens[sample.c2_index] == "PROBLEM"
        # the two-token span "this swelling" collapses to one token
        assert len(sample.tokens) == len(obj["tokens"]) - 1
        assert sample.label == "TrAP"

    def test_position_zero_at_concepts(self):
        sent = _mk_sentence(
            "T a b P".split(),
            [("c1", 0, 0, "treatment"), ("c2", 3, 3, "problem")],
        )
        sample = enumerate_pairs(sent, TRP_SCHEMA)[0]
        assert sample.pos1[sample.c1_index] == 0
        assert sample.pos2[sample.c2_index] == 0
        assert sample.pos1 == [0, 1, 2, 3]
        assert sample.pos2 == [-3, -2, -1, 0]

    def test_distance_clipping(self):
        tokens = ["T"] + ["w"] * 60 + ["P"]
        sent = _mk_sentence(
            tokens,
            [("c1", 0, 0, "treatment"), ("c2", 61, 61, "problem")],
        )
        sample = enumerate_pairs(sent, TRP_SCHEMA, clip=50)[0]
        assert sample.pos1[-1] == 50
        assert sample.pos2[0] == -50
        assert max(sample.pos1) == 50

    def test_targets_only_mode(self):
        sent = _mk_sentence(
            "T a P1 b P2".split(),
            [("c1", 0, 0, "treatment"), ("c2", 2, 2, "problem"), ("c3", 4, 4, "problem")],
        )
        c1, c2 = sent.concepts[0], sent.concepts[1]
        sample = blind_and_position(sent, (c1, c2), "TrAP", blind="targets")
        assert sample.tokens == ["TREATMENT", "a", "PROBLEM", "b", "P2"]
        all_blinded = blind_and_position(sent, (c1, c2), "TrAP", blind="all")
        assert all_blinded.tokens == ["TREATMENT", "a", "PROBLEM", "b", "PROBLEM"]

    def test_blinding_idempotent_concept_count(self):
        sent = _mk_sentence(
            "x T y P z".split(),
            [("c1", 1, 1, "treatment"), ("c2", 3, 3, "problem")],
        )
        sample = enumerate_pairs(sent, TRP_SCHEMA)[0]
        assert sample.tokens.count("TREATMENT") == 1
        assert sample.tokens.count("PROBLEM") == 1

    def test_positions_increase_by_one(self):
        sent = _mk_sentence(
            "a T b c P d".split(),
            [("c1", 1, 1, "treatment"), ("c2", 4, 4, "problem")],
        )
        sample = enumerate_pairs(sent, TRP_SCHEMA, clip=50)[0]
        diffs = np.diff(sample.pos1)
        assert np.all(diffs == 1)


class TestVocab:
    def _samples(self, token_lists):
        return [
            data.RelationSample(tokens=toks, c1_index=0, c2_index=1, label="TrAP", pos1=[0] * len(toks), pos2=[0] * len(toks))
            for toks in token_lists
        ]

    def test_min_count_threshold(self):
        vocab = build_vocab(self._samples([["a", "a", "b"]]), TRP_SCHEMA, min_count=2)
        assert vocab.encode_token("a") >= 2
        assert vocab.encode_token("b") == data.UNK_ID
        assert vocab.n_tokens == 3  # PAD, UNK, a

    def test_position_id_count(self):
        vocab = build_vocab(self._samples([["a"]]), TRP_SCHEMA, clip=50)
        assert vocab.n_positions == 102  # 101 clipped distances + PAD
        assert vocab.encode_position(-50) == 1
        assert vocab.encode_position(0) == 51
        assert vocab.encode_position(50) == 101
        assert vocab.encode_position(77) == 101  # clipped

    def test_unseen_token_is_unk(self):
        vocab = build_vocab(self._samples([["a"]]), TRP_SCHEMA)
        assert vocab.encode_token("never-seen") == data.UNK_ID
        assert vocab.n_tokens == 3

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            build_vocab([], TRP_SCHEMA)

    def test_class_index_follows_schema_order(self):
        vocab = build_vocab(self._samples([["a"]]), TRP_SCHEMA)
        assert vocab.class_names == ["TrAP", "NTrP", "PIP", "NPP"]
        assert vocab.positive_classes == ["TrAP", "PIP"]

    def test_round_trip_dict(self):
        vocab = build_vocab(self._samples([["a", "b"]]), TRP_SCHEMA, clip=10)
        clone = data.Vocab.from_dict(vocab.to_dict())
        assert clone.stoi == vocab.stoi
        assert clone.clip == vocab.clip
        assert clone.class_names == vocab.class_names


def _fold_samples(labels):
    return [
        data.RelationSample(tokens=["a", "b"], c1_index=0, c2_index=1, label=l, pos1=[0, 1], pos2=[-1, 0])
        for l in labels
    ]


class TestMakeFolds:
    def test_even_split(self):
        assignment = make_folds(_fold_samples(["A"] * 10), 5, seed=0)
        counts = np.bincount(assignment, minlength=5)
        assert np.all(counts == 2)

    def test_pigeonhole_on_seven(self):
        assignment = make_folds(_fold_samples(["A"] * 7), 5, seed=1)
        counts = sorted(np.bincount(assignment, minlength=5), reverse=True)
        assert counts == [2, 2, 1, 1, 1]

    def test_deterministic(self):
        samples = _fold_samples(["A", "B"] * 10)
        a = make_folds(samples, 4, seed=7)
        b = make_folds(samples, 4, seed=7)
        assert np.array_equal(a, b)

    def test_stratified_by_class(self):
        samples = _fold_samples(["A"] * 10 + ["B"] * 5)
        assignment = make_folds(samples, 5, seed=0)
        a_counts = np.bincount(assignment[:10], minlength=5)
        assert a_counts.max() - a_counts.min() <= 1

    def test_too_few_samples(self):
        with pytest.raises(InputError):
            make_folds(_fold_samples(["A"]), 2, seed=0)


class TestBatchify:
    def _sample(self, tokens, label="TrAP"):
        n = len(tokens)
        return data.RelationSample(
            tokens=tokens, c1_index=0, c2_index=n - 1, label=label,
            pos1=list(range(n)), pos2=list(range(-n + 1, 1)), sample_id="s",
        )

    def _vocab(self):
        return build_vocab([self._sample(["a", "b", "c", "d", "e"])], TRP_SCHEMA, clip=10)

    def test_padding_and_masks(self):
        vocab = self._vocab()
        samples = [self._sample(["a", "b", "c"]), self._sample(["a", "b", "c", "d", "e"])]
        batches, skipped = batchify(encode(samples, vocab, k=1), [0, 1], batch_size=2)
        assert skipped == 0
        batch = batches[0]
        assert batch.token_ids.shape == (2, 5)
        assert batch.lengths.tolist() == [3, 5]
        assert batch.token_ids[0, 3] == data.PAD_ID

    def test_short_samples_skipped_with_counter(self):
        # training order: every sample the encoding flags as short is left out
        vocab = self._vocab()
        samples = [self._sample(["a", "b"]), self._sample(["a", "b", "c", "d"])]
        corpus = encode(samples, vocab, k=3)
        assert corpus.short.tolist() == [True, False]
        batches, skipped = batchify(corpus, np.flatnonzero(~corpus.short), batch_size=4)
        assert skipped == 1
        assert batches[0].size == 1 and batches[0].lengths.tolist() == [4]

    def test_short_sample_padded_to_window(self):
        vocab = self._vocab()
        corpus = encode([self._sample(["a", "b"]), self._sample(["c", "d", "e", "a"])], vocab, k=3)
        batches, skipped = batchify(corpus, [1, 0], batch_size=4)
        assert skipped == 0
        batch = batches[0]
        assert batch.lengths.tolist() == [4, 3]
        assert [vocab.itos[i] for i in batch.token_ids[1]] == ["a", "b", data.PAD_TOKEN, data.PAD_TOKEN]
        for grid in (batch.token_ids, batch.pos1_ids, batch.pos2_ids):
            assert grid[1, 2:].tolist() == [data.PAD_ID, data.PAD_ID] and data.PAD_ID not in grid[1, :2]

    def test_batch_size_one(self):
        vocab = self._vocab()
        batches, _ = batchify(encode([self._sample(["a", "b", "c"])], vocab, k=1), [0], batch_size=1)
        assert batches[0].token_ids.shape == (1, 3)
        assert batches[0].lengths.tolist() == [3]

    def test_round_trip_decode(self):
        vocab = self._vocab()
        tokens = ["a", "b", "c", "d"]
        batch = batchify(encode([self._sample(tokens)], vocab, k=1), [0], batch_size=1)[0][0]
        decoded = [vocab.itos[i] for i in batch.token_ids[0]]
        assert decoded == tokens

    def test_invalid_batch_size(self):
        with pytest.raises(InputError):
            batchify(encode([], self._vocab(), k=1), [], batch_size=0)


class TestSchema:
    def test_duplicate_pair_rule_rejected(self):
        with pytest.raises(ConfigError):
            PairSchema.from_dict(
                {
                    "pairs": [
                        {"types": ["a", "b"], "category": "X", "positive": ["P"], "negative": "N"},
                        {"types": ["b", "a"], "category": "Y", "positive": ["Q"], "negative": "M"},
                    ]
                }
            )

    def test_lookup_is_unordered(self):
        schema = PairSchema.from_dict(SIMPLE_SCHEMA)
        assert schema.lookup("problem", "treatment") is not None
        assert schema.lookup("treatment", "problem") is not None
        assert schema.lookup("treatment", "treatment") is None

    def test_category_map_covers_all_classes(self):
        schema = PairSchema.from_dict(SIMPLE_SCHEMA)
        mapping = schema.class_to_category
        for name in schema.class_names:
            assert mapping[name] == "TrP"

    def test_empty_schema_rejected(self):
        with pytest.raises(ConfigError):
            PairSchema.from_dict({"pairs": []})


class TestPretrainedEmbeddings:
    def test_load_and_apply(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        vectors, dim = data.load_pretrained_embeddings(str(path))
        assert dim == 3 and set(vectors) == {"alpha", "beta"}

        schema = PairSchema.from_dict(SIMPLE_SCHEMA)
        sample = data.RelationSample(
            tokens=["alpha", "gamma"], c1_index=0, c2_index=1, label="NONE", pos1=[0, 1], pos2=[-1, 0]
        )
        vocab = build_vocab([sample], schema, clip=5)
        table = np.zeros((3, vocab.n_tokens))
        hits = data.apply_pretrained(table, vocab, vectors)
        assert hits == 1
        assert np.array_equal(table[:, vocab.encode_token("alpha")], [1, 2, 3])

    def test_dim_mismatch_rejected(self, tmp_path):
        schema = PairSchema.from_dict(SIMPLE_SCHEMA)
        sample = data.RelationSample(
            tokens=["alpha"], c1_index=0, c2_index=0, label="NONE", pos1=[0], pos2=[0]
        )
        vocab = build_vocab([sample], schema, clip=5)
        with pytest.raises(ConfigError):
            data.apply_pretrained(np.zeros((2, vocab.n_tokens)), vocab, {"alpha": np.ones(5)})

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ParseError):
            data.load_pretrained_embeddings(str(path))
