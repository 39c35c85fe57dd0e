import json
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    build_vocab,
    corpus_samples,
    encode,
    enumerate_pairs,
    make_folds,
    parse_corpus,
)

from synthdata import I2B2_STYLE_SCHEMA, SIMPLE_SCHEMA, make_i2b2_style_corpus, write_jsonl

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
        # valid JSON that is not a sentence object
        bad_lines = {
            "[1, 2]": "not a JSON object",
            '"str"': "not a JSON object",
            json.dumps(dict(figure_sentence(), concepts=5)): "'concepts' must be a list",
            json.dumps(dict(figure_sentence(), relations=None)): "'relations' must be a list",
        }
        for line, message in bad_lines.items():
            path.write_text(good + "\n" + line + "\n")
            with pytest.raises(ParseError, match=f":2: {message}"):
                parse_corpus(str(path))

    def test_non_utf8_line_named(self, tmp_path):
        good = json.dumps(dict(figure_sentence(), id="café"), ensure_ascii=False).encode("utf-8")
        path = tmp_path / "mixed.jsonl"
        path.write_bytes(good + b"\n")
        assert parse_corpus(str(path))[0].sent_id == "café"
        path.write_bytes(good + b"\n" + good.replace(b"steroids", b"ster\xffoids") + b"\n")
        with pytest.raises(ParseError, match=r"mixed\.jsonl:2: not UTF-8 text"):
            parse_corpus(str(path))

    def test_self_relation_rejected(self, tmp_path):
        obj = figure_sentence()
        obj["relations"] = [{"a": "c2", "b": "c2", "label": "TrAP"}]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(figure_sentence()) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match=r"bad\.jsonl:2: relation relates concept 'c2' to itself"):
            parse_corpus(str(path))

    def test_span_bounds_must_be_integers(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        for start, end in ((4.0, 4), (1.7, 4), (4, True), ("4", 4), (False, 0)):
            obj = figure_sentence()
            obj["concepts"][0].update(start=start, end=end)
            path.write_text(json.dumps(figure_sentence()) + "\n" + json.dumps(obj) + "\n")
            with pytest.raises(ParseError, match=r":2: concept c1 'start' and 'end' must be integers"):
                parse_corpus(str(path))

    @pytest.mark.parametrize("value", [None, 7, ["p"]], ids=["null", "int", "list"])
    @pytest.mark.parametrize(
        "field, message",
        [
            (("id",), "'id'"),
            (("concepts", 0, "id"), "concept 'id'"),
            (("concepts", 1, "type"), "concept 'type'"),
            (("relations", 0, "a"), "relation 'a'"),
            (("relations", 0, "b"), "relation 'b'"),
            (("relations", 0, "label"), "relation 'label'"),
        ],
        ids=["id", "concept.id", "concept.type", "relation.a", "relation.b", "relation.label"],
    )
    def test_names_and_labels_must_be_strings(self, tmp_path, field, message, value):
        # coerced to text, a null type would blind to NONE, match no schema rule and drop its pairs unseen
        obj = dict(figure_sentence(), id="s1")
        *parents, key = field
        entry = obj
        for parent in parents:
            entry = entry[parent]
        entry[key] = value
        path = tmp_path / "fields.jsonl"
        path.write_text(json.dumps(figure_sentence()) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_corpus(str(path))
        assert str(exc.value) == f"{path}:2: {message} must be a string, got {value!r}"

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_ids_must_not_break_tsv_rows(self, tmp_path, char):
        # sentence and concept ids are written into predictions.tsv
        path = tmp_path / "ids.jsonl"
        bad_id = f"x{char}2"
        sentence = dict(figure_sentence(), id=bad_id)
        concept = dict(figure_sentence(), id="s2")
        concept["concepts"][1]["id"] = bad_id
        for obj, key in ((sentence, "'id'"), (concept, "concept 'id'")):
            path.write_text(json.dumps(figure_sentence()) + "\n" + json.dumps(obj) + "\n")
            with pytest.raises(ParseError) as exc:
                parse_corpus(str(path))
            assert str(exc.value) == f"{path}:2: {key} must not hold a tab or line break, got {bad_id!r}"


def _mk_sentence(tokens, concepts, relations=()):
    return AnnotatedSentence(
        tokens=tokens,
        concepts=[Concept(*c) for c in concepts],
        relations=[Relation(*r) for r in relations],
        sent_id="t1",
    )


def treatment_and_two_problems():
    return _mk_sentence(
        "T a P1 b P2".split(),
        [("c1", 0, 0, "treatment"), ("c2", 2, 2, "problem"), ("c3", 4, 4, "problem")],
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

    def test_label_outside_its_rule_rejected(self):
        sent = _mk_sentence(
            "T x P1 y P2".split(),
            [("c1", 0, 0, "treatment"), ("c2", 2, 2, "problem"), ("c3", 4, 4, "problem")],
            [("c1", "c2", "TrAP")],
        )
        assert len(enumerate_pairs(sent, TRP_SCHEMA)) == 3
        # TrAP belongs to the treatment-problem rule, not to problem-problem
        for label in ("TYPO", "TrAP"):
            sent.relations = [Relation("c3", "c2", label)]
            with pytest.raises(DataError, match=rf"^t1: concept pair \(c2, c3\) has label '{label}'"):
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
        [(pos1, pos2)] = encoded_positions([sample])
        assert pos1[sample.c1_index] == 0
        assert pos2[sample.c2_index] == 0
        assert pos1 == [0, 1, 2, 3]
        assert pos2 == [-3, -2, -1, 0]

    def test_distance_clipping(self):
        tokens = ["T"] + ["w"] * 60 + ["P"]
        sent = _mk_sentence(
            tokens,
            [("c1", 0, 0, "treatment"), ("c2", 61, 61, "problem")],
        )
        [(pos1, pos2)] = encoded_positions(enumerate_pairs(sent, TRP_SCHEMA), clip=50)
        assert pos1[-1] == 50
        assert pos2[0] == -50
        assert max(pos1) == 50
        [(pos1, pos2)] = encoded_positions(enumerate_pairs(sent, TRP_SCHEMA), clip=3)
        assert pos1 == [0, 1, 2] + [3] * 59 and pos2 == [-3] * 59 + [-2, -1, 0]

    def test_targets_only_mode(self):
        sent = treatment_and_two_problems()
        sample = enumerate_pairs(sent, TRP_SCHEMA, blind="targets")[0]
        assert sample.sample_id == "t1:c1:c2"
        assert sample.tokens == ["TREATMENT", "a", "PROBLEM", "b", "P2"]
        all_blinded = enumerate_pairs(sent, TRP_SCHEMA, blind="all")[0]
        assert all_blinded.sample_id == "t1:c1:c2"
        assert all_blinded.tokens == ["TREATMENT", "a", "PROBLEM", "b", "PROBLEM"]

    def test_blinded_once_per_sentence_in_all_mode(self, monkeypatch):
        sentences = [
            treatment_and_two_problems(),
            _mk_sentence("x T y".split(), [("c1", 1, 1, "treatment")]),  # no pair: not blinded at all
            _mk_sentence("P1 P1 T".split(), [("c1", 0, 1, "problem"), ("c2", 2, 2, "treatment")]),
        ]
        calls = []
        original = data.blind_concepts

        def counted(tokens, concepts):
            calls.append(tuple(c.id for c in concepts))
            return original(tokens, concepts)

        monkeypatch.setattr(data, "blind_concepts", counted)
        assert len(corpus_samples(sentences, TRP_SCHEMA, blind="all")) == 4
        assert calls == [("c1", "c2", "c3"), ("c1", "c2")]
        calls.clear()
        assert len(corpus_samples(sentences, TRP_SCHEMA, blind="targets")) == 4
        assert calls == [("c1", "c2"), ("c1", "c3"), ("c2", "c3"), ("c1", "c2")]

    def test_target_inside_another_span_rejected(self):
        # parse_corpus rejects overlapping spans; a sentence built by hand can hold them
        sent = _mk_sentence("T P T".split(), [("c1", 0, 2, "treatment"), ("c2", 1, 1, "problem")])
        for blind in ("all", "targets"):
            with pytest.raises(DataError, match="target concept missing"):
                enumerate_pairs(sent, TRP_SCHEMA, blind=blind)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_blind_concepts_equals_the_per_token_walk(self, draws):
        n = draws.draw(st.integers(1, 24), label="n")
        tokens = [f"w{i}" for i in range(n)]
        # cuts split the sentence into runs; any run may be a concept, so
        # spans never overlap and may sit at either end
        cuts = sorted(draws.draw(st.sets(st.integers(1, n - 1)), label="cuts")) if n > 1 else []
        bounds = [0] + cuts + [n]
        kinds = st.sampled_from(["treatment", "problem", "test"])
        concepts = [
            Concept(f"c{j}", lo, hi - 1, draws.draw(kinds))
            for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if draws.draw(st.booleans())
        ]
        if concepts and draws.draw(st.booleans(), label="inner"):
            # one concept starting inside another's span, or at its start
            host = draws.draw(st.sampled_from(concepts))
            start = draws.draw(st.integers(host.start, host.end))
            concepts.append(Concept("inner", start, draws.draw(st.integers(start, n - 1)), draws.draw(kinds)))
        concepts = draws.draw(st.permutations(concepts), label="listed")
        assert data.blind_concepts(tokens, concepts) == oracle_blind_concepts(tokens, concepts)

    def test_each_sample_owns_its_tokens(self):
        first, second, _ = enumerate_pairs(treatment_and_two_problems(), TRP_SCHEMA)
        first.tokens[1] = "changed"
        assert second.tokens == ["TREATMENT", "a", "PROBLEM", "b", "PROBLEM"]

    def test_unknown_blind_mode_rejected_without_pairs(self):
        sent = _mk_sentence("a T b".split(), [("c1", 1, 1, "treatment")])
        assert enumerate_pairs(sent, TRP_SCHEMA) == []
        for mode in ("none", None, "ALL"):
            with pytest.raises(ConfigError, match="blind must be 'all' or 'targets'"):
                corpus_samples([sent], TRP_SCHEMA, blind=mode)

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
        [(pos1, _)] = encoded_positions(enumerate_pairs(sent, TRP_SCHEMA), clip=50)
        diffs = np.diff(pos1)
        assert np.all(diffs == 1)


def encoded_positions(samples, clip=50):
    """The signed distances to the two targets that ``encode`` writes for
    each sample's tokens, as a (pos1, pos2) pair of lists."""
    corpus = encode(samples, build_vocab(samples, TRP_SCHEMA, clip=clip), k=1)
    rows = corpus.ids[1:] - (clip + 1)
    return [tuple(rows[:, lo:hi].tolist()) for lo, hi in zip(corpus.offsets[:-1], corpus.offsets[1:])]


def oracle_blind_concepts(tokens, concepts):
    """The per-token walk ``blind_concepts`` replaced: a concept whose start
    the walk reaches collapses to its type, the last one listed winning a
    shared start; a concept that starts inside an earlier span is skipped."""
    by_start = {c.start: c for c in concepts}
    blinded, new_index = [], {}
    t = 0
    while t < len(tokens):
        concept = by_start.get(t)
        if concept is not None:
            new_index[concept.id] = len(blinded)
            blinded.append(concept.type.upper())
            t = concept.end + 1
        else:
            blinded.append(tokens[t])
            t += 1
    return blinded, new_index


def oracle_blind_and_position(sentence, pair, label, clip=50, blind="all"):
    """Per-pair blinding and clipped distances as they were before
    sentences were blinded once for all of their pairs and ``encode``
    derived the positions: the sample ``enumerate_pairs`` must equal, and
    the (pos1, pos2) distances ``encode`` must write for it."""
    c1, c2 = pair
    if c1.start > c2.start:
        c1, c2 = c2, c1
    blinded, new_index = oracle_blind_concepts(sentence.tokens, sentence.concepts if blind == "all" else [c1, c2])
    i1, i2 = new_index[c1.id], new_index[c2.id]
    steps = np.arange(len(blinded))
    sample = data.RelationSample(
        tokens=blinded,
        c1_index=i1,
        c2_index=i2,
        label=label,
        sample_id=f"{sentence.sent_id}:{c1.id}:{c2.id}",
    )
    return sample, (np.clip(steps - i1, -clip, clip).tolist(), np.clip(steps - i2, -clip, clip).tolist())


def oracle_corpus_samples(sentences, schema, clip, blind):
    """The oracle's samples and, per sample, its (pos1, pos2) distances."""
    samples, positions = [], []
    for sentence in sentences:
        annotated = {frozenset((r.a, r.b)): r.label for r in sentence.relations}
        concepts = sorted(sentence.concepts, key=lambda c: c.start)
        for i in range(len(concepts)):
            for j in range(i + 1, len(concepts)):
                rule = schema.lookup(concepts[i].type, concepts[j].type)
                if rule is not None:
                    label = annotated.get(frozenset((concepts[i].id, concepts[j].id)), rule.negative)
                    sample, pos = oracle_blind_and_position(sentence, (concepts[i], concepts[j]), label, clip, blind)
                    samples.append(sample)
                    positions.append(pos)
    return samples, positions


def oracle_encode_ids(samples, positions, vocab, k):
    """The id block ``encode`` must return, filled sample by sample from
    the oracle's per-pair distances."""
    lengths = np.array([len(s.tokens) for s in samples], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(np.maximum(lengths, k))])
    ids = np.full((3, offsets[-1]), data.PAD_ID, dtype=np.int64)
    for sample, pos, lo, n in zip(samples, positions, offsets, lengths):
        ids[0, lo : lo + n] = [vocab.encode_token(t) for t in sample.tokens]
        ids[1:, lo : lo + n] = vocab.encode_position(np.array(pos))
    return ids, offsets


class TestDataPathOracle:
    """``corpus_samples`` and ``encode`` against the per-pair blinding and the
    per-sample encoding loop they replace."""

    def _corpora(self, tmp_path):
        path = tmp_path / "i2b2.jsonl"
        write_jsonl(path, make_i2b2_style_corpus(120, seed=5))
        long_tokens = [f"w{i % 7}" for i in range(110)]
        hand = [
            # multi-token spans, concepts at both ends, a pair with no relation
            _mk_sentence(
                "T T a P1 P1 P1 b c P2".split(),
                [("c1", 0, 1, "treatment"), ("c2", 3, 5, "problem"), ("c3", 8, 8, "problem")],
                [("c1", "c3", "TrAP"), ("c3", "c2", "PIP")],
            ),
            # longer than 2 * 50 + 1, with targets at both ends and in the middle
            _mk_sentence(
                long_tokens,
                [("a", 0, 0, "treatment"), ("b", 50, 52, "problem"), ("c", 108, 109, "problem")],
            ),
            # concepts out of order in the list, one out of the schema
            _mk_sentence(
                "x P y T z Q".split(),
                [("p", 1, 1, "problem"), ("q", 5, 5, "test"), ("t", 3, 3, "treatment")],
                [("t", "p", "TrAP")],
            ),
            _mk_sentence("P T".split(), [("c1", 0, 0, "problem"), ("c2", 1, 1, "treatment")]),
        ]
        return [(parse_corpus(str(path)), PairSchema.from_dict(I2B2_STYLE_SCHEMA)), (hand, TRP_SCHEMA)]

    def test_samples_and_ids_equal_the_oracle(self, tmp_path):
        for sentences, schema in self._corpora(tmp_path):
            for blind in ("all", "targets"):
                for clip in (3, 50):
                    samples = corpus_samples(sentences, schema, blind=blind)
                    expected, positions = oracle_corpus_samples(sentences, schema, clip, blind)
                    assert samples == expected
                    vocab = build_vocab(samples, schema, min_count=2, clip=clip, blind=blind)
                    for k in (3, 5):
                        corpus = encode(samples, vocab, k)
                        ids, offsets = oracle_encode_ids(samples, positions, vocab, k)
                        assert corpus.ids.dtype == ids.dtype and np.array_equal(corpus.ids, ids)
                        assert corpus.offsets.dtype == offsets.dtype and np.array_equal(corpus.offsets, offsets)
                        assert corpus.labels.tolist() == [vocab.class_index[s.label] for s in samples]
                        assert corpus.distances == [abs(s.c2_index - s.c1_index) for s in samples]
                        assert all(type(d) is int for d in corpus.distances)


class TestVocab:
    def _samples(self, token_lists):
        return [
            data.RelationSample(tokens=toks, c1_index=0, c2_index=1, label="TrAP")
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
        vocab = build_vocab(self._samples([["a", "b"]]), TRP_SCHEMA, clip=10, blind="targets")
        clone = data.from_section(data.Vocab, asdict(vocab), "vocab")
        assert clone == vocab
        assert clone.stoi == vocab.stoi
        assert clone.clip == vocab.clip
        assert clone.class_names == vocab.class_names


def _fold_samples(labels):
    return [
        data.RelationSample(tokens=["a", "b"], c1_index=0, c2_index=1, label=l)
        for l in labels
    ]


def _warned_folds(labels, folds, seed):
    """``make_folds`` over samples of ``labels``, after checking that it
    warned once for each class with fewer samples than folds, and for no
    other."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assignment = make_folds(_fold_samples(labels), folds, seed)
    assert [str(w.message) for w in caught] == [
        f"class '{label}' has {n} samples for {folds} folds; some folds will lack it"
        for label, n in sorted(Counter(labels).items())
        if n < folds
    ]
    return assignment


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

    def test_round_robin_continues_across_classes(self):
        assignment = _warned_folds(["A", "B", "C", "D"], 3, seed=0)
        assert sorted(np.bincount(assignment, minlength=3)) == [1, 1, 2]
        labels = ["A"] * 4 + ["B"] * 3 + ["C"] * 2 + ["D"]
        for folds in (2, 3, 4, 5):
            assignment = _warned_folds(labels, folds, seed=folds)
            assert np.bincount(assignment, minlength=folds).all()
            for label in "ABCD":
                counts = np.bincount(assignment[np.array(labels) == label], minlength=folds)
                assert counts.max() - counts.min() <= 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_no_fold_is_empty(self, draws):
        # cv trains on the folds as they come, so none may hold out nothing
        labels = draws.draw(st.lists(st.sampled_from("ABCDE"), min_size=2, max_size=60), label="labels")
        folds = draws.draw(st.integers(2, len(labels)), label="folds")
        assignment = _warned_folds(labels, folds, seed=draws.draw(st.integers(0, 2**32 - 1)))
        assert np.bincount(assignment, minlength=folds).all()
        for label in set(labels):
            counts = np.bincount(assignment[np.array(labels) == label], minlength=folds)
            assert counts.max() - counts.min() <= 1


class TestBatchify:
    def _sample(self, tokens, label="TrAP"):
        n = len(tokens)
        return data.RelationSample(tokens=tokens, c1_index=0, c2_index=n - 1, label=label, sample_id="s")

    def _vocab(self):
        return build_vocab([self._sample(["a", "b", "c", "d", "e"])], TRP_SCHEMA, clip=10)

    def test_ids_are_the_samples_columns_in_order(self):
        vocab = self._vocab()
        samples = [self._sample(["a", "b", "c"]), self._sample(["a", "b", "c", "d", "e"]), self._sample(["e", "d"])]
        corpus = encode(samples, vocab, k=1)
        batches, skipped = batchify(corpus, [2, 0, 1], batch_size=2)
        assert skipped == 0
        assert [b.lengths.tolist() for b in batches] == [[2, 3], [5]]
        own = [corpus.ids[:, corpus.offsets[i] : corpus.offsets[i + 1]] for i in range(3)]
        assert np.array_equal(batches[0].ids, np.concatenate([own[2], own[0]], axis=1))
        assert np.array_equal(batches[1].ids, own[1])
        assert data.PAD_ID not in batches[0].ids

    def test_left_out_samples_counted(self):
        # an order that leaves the first sample out
        vocab = self._vocab()
        samples = [self._sample(["a", "b"]), self._sample(["a", "b", "c", "d"])]
        corpus = encode(samples, vocab, k=3)
        batches, skipped = batchify(corpus, [1], batch_size=4)
        assert skipped == 1
        assert batches[0].size == 1 and batches[0].lengths.tolist() == [4]

    def test_short_sample_padded_to_window(self):
        vocab = self._vocab()
        corpus = encode([self._sample(["a", "b"]), self._sample(["c", "d", "e", "a"])], vocab, k=3)
        batches, skipped = batchify(corpus, [1, 0], batch_size=4)
        assert skipped == 0
        batch = batches[0]
        assert batch.lengths.tolist() == [4, 3]
        assert batch.ids.shape == (3, 7)
        # the short sample carries exactly one PAD column, up to k = 3
        assert [vocab.itos[i] for i in batch.ids[0, 4:]] == ["a", "b", data.PAD_TOKEN]
        assert batch.ids[:, 6].tolist() == [data.PAD_ID] * 3
        assert data.PAD_ID not in batch.ids[:, :6]

    def test_batch_size_one(self):
        vocab = self._vocab()
        batches, _ = batchify(encode([self._sample(["a", "b", "c"])], vocab, k=1), [0], batch_size=1)
        assert batches[0].ids.shape == (3, 3)
        assert batches[0].lengths.tolist() == [3]

    def test_round_trip_decode(self):
        vocab = self._vocab()
        tokens = ["a", "b", "c", "d"]
        batch = batchify(encode([self._sample(tokens)], vocab, k=1), [0], batch_size=1)[0][0]
        decoded = [vocab.itos[i] for i in batch.ids[0]]
        assert decoded == tokens

    def test_invalid_batch_size(self):
        with pytest.raises(InputError):
            batchify(encode([], self._vocab(), k=1), [], batch_size=0)


class TestSchema:
    def test_duplicate_pair_rule_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        rules = [
            {"types": ["a", "b"], "category": "X", "positive": ["P"], "negative": "N"},
            {"types": ["b", "a"], "category": "Y", "positive": ["Q"], "negative": "M"},
        ]
        path.write_text(json.dumps({"pairs": rules}))
        with pytest.raises(ConfigError) as exc:
            data.load_schema(str(path))
        assert str(exc.value) == f"{path}: duplicate pair rule for types ('a', 'b')"

    def test_lookup_is_unordered(self):
        schema = PairSchema.from_dict(SIMPLE_SCHEMA)
        assert schema.lookup("problem", "treatment") is not None
        assert schema.lookup("treatment", "problem") is not None
        assert schema.lookup("treatment", "treatment") is None
        assert schema.lookup("problem", "treatment") is schema.lookup("treatment", "problem") is schema.rules[0]
        assert TRP_SCHEMA.lookup("problem", "problem") is TRP_SCHEMA.rules[1]

    def test_category_map_covers_all_classes(self):
        schema = PairSchema.from_dict(SIMPLE_SCHEMA)
        mapping = schema.class_to_category
        for name in schema.class_names:
            assert mapping[name] == "TrP"

    def test_empty_schema_rejected(self):
        with pytest.raises(ConfigError):
            PairSchema.from_dict({"pairs": []})

    def test_types_and_positive_must_be_lists(self):
        rule = {"types": ["a", "b"], "category": "X", "positive": ["P"], "negative": "N"}
        PairSchema.from_dict({"pairs": [rule]})
        for key, value in (("types", "ab"), ("positive", "TrAP"), ("types", {"a": 1, "b": 2})):
            with pytest.raises(ConfigError, match="list"):
                PairSchema.from_dict({"pairs": [dict(rule, **{key: value})]})

    def test_names_must_be_strings(self):
        rule = {"types": ["a", "b"], "category": "X", "positive": ["P"], "negative": "N"}
        for key, value in (
            ("negative", ["N"]), ("negative", 0), ("category", None), ("types", ["a", 2]), ("positive", ["P", 1.5]),
        ):
            with pytest.raises(ConfigError, match="string"):
                PairSchema.from_dict({"pairs": [dict(rule, **{key: value})]})

    def test_unknown_rule_key_rejected(self):
        rule = {"types": ["a", "b"], "category": "X", "positive": ["P"], "negative": "N", "note": "x"}
        with pytest.raises(ConfigError, match=r"^pair schema: pair rule 1: unknown keys \['note'\]$"):
            PairSchema.from_dict({"pairs": [SIMPLE_SCHEMA["pairs"][0], rule]})

    def test_rule_error_names_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"pairs": [{"types": ["a", "b"], "category": "X", "positive": "P", "negative": "N"}]}))
        with pytest.raises(ConfigError) as exc:
            data.load_schema(str(path))
        assert str(exc.value) == f"{path}: pair rule 0: positive must be a list of strings, got 'P'"

    def test_non_utf8_schema_named(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_bytes(json.dumps(SIMPLE_SCHEMA, indent=1).replace("REL_A", "REL_\xff").encode("latin-1"))
        with pytest.raises(ConfigError, match=r"schema\.json:\d+: not UTF-8 text"):
            data.load_schema(str(path))


def pretrained_vocab(*tokens):
    sample = data.RelationSample(tokens=list(tokens), c1_index=0, c2_index=1, label="NONE")
    return build_vocab([sample], PairSchema.from_dict(SIMPLE_SCHEMA), clip=5)


class TestPretrainedEmbeddings:
    def test_load_and_apply(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        vocab = pretrained_vocab("alpha", "gamma")
        table = np.zeros((3, vocab.n_tokens))
        hits = data.load_pretrained(str(path), table, vocab)
        assert hits == 1
        alpha = vocab.encode_token("alpha")
        assert np.array_equal(table[:, alpha], [1, 2, 3])
        assert not np.delete(table, alpha, axis=1).any()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_word2vec_trailing_space(self, tmp_path, newline):
        # the word2vec tool writes a space after every value, the last one too
        path = tmp_path / "vecs.txt"
        path.write_bytes(newline.join(["2 3 ", "foo 0.1 0.2 0.3 ", "bar 4 5 6 ", ""]).encode())
        vocab = pretrained_vocab("foo", "bar")
        table = np.zeros((3, vocab.n_tokens))
        assert data.load_pretrained(str(path), table, vocab) == 2
        assert np.array_equal(table[:, vocab.encode_token("foo")], [0.1, 0.2, 0.3])
        assert np.array_equal(table[:, vocab.encode_token("bar")], [4, 5, 6])

    def test_header_count_mismatch_warns(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 3\nalpha 1 2 3\nbeta 4 5 6\n")
        vocab = pretrained_vocab("alpha")
        with pytest.warns(UserWarning, match=r"^.*vecs\.txt: header promised 3 vectors, found 2$"):
            assert data.load_pretrained(str(path), np.zeros((3, vocab.n_tokens)), vocab) == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("nonsense\n")
        vocab = pretrained_vocab("alpha")
        with pytest.raises(ParseError):
            data.load_pretrained(str(path), np.zeros((3, vocab.n_tokens)), vocab)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 x 6\n")
        vocab = pretrained_vocab("alpha")
        with pytest.raises(ParseError, match=r"vecs\.txt:3: non-numeric"):
            data.load_pretrained(str(path), np.zeros((3, vocab.n_tokens)), vocab)
        # the width is checked against the table before any vector is read
        with pytest.raises(ConfigError, match=r"^.*vecs\.txt: embedding width 3 != model d_w 4$"):
            data.load_pretrained(str(path), np.zeros((4, vocab.n_tokens)), vocab)

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"2 3\nalpha 1 2 3\nb\xffta 4 5 6\n")
        vocab = pretrained_vocab("alpha")
        with pytest.raises(ParseError, match=r"vecs\.txt:3: not UTF-8 text"):
            data.load_pretrained(str(path), np.zeros((3, vocab.n_tokens)), vocab)

    def test_non_finite_value_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        vocab = pretrained_vocab("alpha")
        for bad in ("nan", "inf", "-inf"):
            path.write_text(f"2 3\nalpha 1 {bad} 3\nbeta 4 5 6\n")
            with pytest.raises(ParseError, match=r"vecs\.txt:2: non-finite"):
                data.load_pretrained(str(path), np.zeros((3, vocab.n_tokens)), vocab)

    def test_matches_two_step_load(self, tmp_path):
        # the reference reads every vector into a dict, then copies the
        # vocabulary's into the table, PAD left out and a repeat's last kept
        rng = np.random.default_rng(0)
        words = ["w0", "<pad>", "w1", "<unk>", "oov", "w0", "w2"]
        lines = [f"{w} " + " ".join(repr(float(v)) for v in rng.standard_normal(5) * 10.0 ** rng.integers(-8, 8, 5)) for w in words]
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join([f"{len(words)} 5", *lines, ""]))
        vocab = pretrained_vocab("w0", "w1", "w2", "w3")
        vectors = {line.split(" ")[0]: np.array([float(x) for x in line.split(" ")[1:]]) for line in lines}
        expected = rng.standard_normal((5, vocab.n_tokens))
        table = expected.copy()
        expected_hits = 0
        for token, idx in vocab.stoi.items():
            if idx != data.PAD_ID and token in vectors:
                expected[:, idx] = vectors[token]
                expected_hits += 1
        assert data.load_pretrained(str(path), table, vocab) == expected_hits == 4
        assert table.tobytes() == expected.tobytes()

    def test_peak_memory_far_below_the_vectors(self, tmp_path):
        # 5,000 vectors of 100 values: 4 MB as float64, ~4.5 MB of text
        n_words, dim = 5000, 100
        row = " ".join(f"{v:.6f}" for v in np.random.default_rng(1).standard_normal(dim))
        path = tmp_path / "vecs.txt"
        with open(path, "w") as fh:
            fh.write(f"{n_words} {dim}\n")
            fh.writelines(f"w{i} {row}\n" for i in range(n_words))
        vocab = pretrained_vocab(*(f"w{i}" for i in range(0, n_words, n_words // 10)))
        table = np.zeros((dim, vocab.n_tokens))
        tracemalloc.start()
        try:
            hits = data.load_pretrained(str(path), table, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits == 10
        assert peak < n_words * dim * 8 / 20
