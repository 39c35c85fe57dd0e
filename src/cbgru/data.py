"""Corpus ingestion and preprocessing: JSONL parsing, concept blinding,
relation-pair enumeration with negative labeling, position features,
vocabulary construction, stratified fold splitting, encoding and batching.

``encode`` turns a corpus into flat id arrays once; it is the only place
tokens, positions and labels are looked up in the vocabulary. A sample with
fewer than ``k`` blinded tokens is right-padded with PAD ids to width ``k``
(PAD embeddings are zero) and flagged as short. ``batchify`` only slices
padded grids out of an encoded corpus in a given order, so the caller picks
what is scored: training leaves the short samples out of its order, while
scoring passes every sample.

Corpus format is one JSON object per line:

    {"tokens": [...],
     "concepts": [{"id": "c1", "start": 3, "end": 4, "type": "treatment"}, ...],
     "relations": [{"a": "c1", "b": "c2", "label": "TrAP"}, ...]}
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import make_rng

log = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class ParseError(ValueError):
    """Malformed corpus input."""


class DataError(ValueError):
    """Inconsistent annotations (e.g. two relations on one concept pair)."""


class ConfigError(ValueError):
    """Invalid configuration or schema."""


class InputError(ValueError):
    """Empty or otherwise unusable input to an operation."""


def check_int(name: str, value, low: int) -> None:
    """Raises ConfigError unless ``value`` is an integer, not a bool, and at
    least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value) -> None:
    """Raises ConfigError unless ``value`` is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class Concept:
    id: str
    start: int
    end: int
    type: str


@dataclass(frozen=True)
class Relation:
    a: str
    b: str
    label: str


@dataclass
class AnnotatedSentence:
    tokens: List[str]
    concepts: List[Concept]
    relations: List[Relation]
    sent_id: str = ""


@dataclass
class RelationSample:
    """One (sentence, concept pair, label) instance after blinding."""

    tokens: List[str]
    c1_index: int
    c2_index: int
    label: str
    pos1: List[int]
    pos2: List[int]
    sample_id: str = ""

    @property
    def distance(self) -> int:
        return abs(self.c2_index - self.c1_index)


# ---------------------------------------------------------------------------
# corpus parsing
# ---------------------------------------------------------------------------


def _validate_sentence(obj: dict, where: str) -> AnnotatedSentence:
    tokens = obj.get("tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError(f"{where}: 'tokens' must be a list of strings")
    concepts = []
    for c in obj.get("concepts", []):
        try:
            concept = Concept(str(c["id"]), int(c["start"]), int(c["end"]), str(c["type"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{where}: malformed concept entry: {c!r}") from exc
        if not (0 <= concept.start <= concept.end < len(tokens)):
            raise ParseError(f"{where}: concept {concept.id} span [{concept.start},{concept.end}] out of range")
        concepts.append(concept)

    ids = [c.id for c in concepts]
    if len(set(ids)) != len(ids):
        raise ParseError(f"{where}: duplicate concept ids")
    spans = sorted(concepts, key=lambda c: (c.start, c.end))
    for prev, cur in zip(spans, spans[1:]):
        if cur.start <= prev.end:
            raise ParseError(f"{where}: concepts {prev.id} and {cur.id} overlap")

    known = set(ids)
    relations = []
    for r in obj.get("relations", []):
        try:
            rel = Relation(str(r["a"]), str(r["b"]), str(r["label"]))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: malformed relation entry: {r!r}") from exc
        for endpoint in (rel.a, rel.b):
            if endpoint not in known:
                raise ParseError(f"{where}: relation references unknown concept id '{endpoint}'")
        relations.append(rel)
    return AnnotatedSentence(tokens, concepts, relations, sent_id=str(obj.get("id", "")))


def parse_corpus(path: str) -> List[AnnotatedSentence]:
    """Reads a JSONL corpus; a malformed line raises ParseError naming it."""
    sentences: List[AnnotatedSentence] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON ({exc})") from exc
            sent = _validate_sentence(obj, where)
            if not sent.sent_id:
                sent.sent_id = f"s{lineno}"
            sentences.append(sent)
    return sentences


# ---------------------------------------------------------------------------
# pair schema
# ---------------------------------------------------------------------------


@dataclass
class PairRule:
    types: Tuple[str, str]  # sorted
    category: str
    positive: List[str]
    negative: str


class PairSchema:
    """Maps unordered concept-type pairs to their positive label set and
    negative (no-relation) label."""

    def __init__(self, rules: Sequence[PairRule]):
        self.rules = list(rules)
        self._by_types: Dict[Tuple[str, str], PairRule] = {}
        for rule in self.rules:
            key = tuple(sorted(rule.types))
            if key in self._by_types:
                raise ConfigError(f"duplicate pair rule for types {key}")
            self._by_types[key] = rule

    def lookup(self, type_a: str, type_b: str) -> Optional[PairRule]:
        return self._by_types.get(tuple(sorted((type_a, type_b))))

    @property
    def class_names(self) -> List[str]:
        names: List[str] = []
        for rule in self.rules:
            for label in rule.positive + [rule.negative]:
                if label not in names:
                    names.append(label)
        return names

    @property
    def positive_classes(self) -> List[str]:
        seen: List[str] = []
        for rule in self.rules:
            for label in rule.positive:
                if label not in seen:
                    seen.append(label)
        return seen

    @property
    def class_to_category(self) -> Dict[str, str]:
        mapping: Dict[str, str] = {}
        for rule in self.rules:
            for label in rule.positive + [rule.negative]:
                mapping.setdefault(label, rule.category)
        return mapping

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "types": list(rule.types),
                    "category": rule.category,
                    "positive": rule.positive,
                    "negative": rule.negative,
                }
                for rule in self.rules
            ]
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PairSchema":
        if not isinstance(obj, dict) or "pairs" not in obj:
            raise ConfigError("pair schema must be an object with a 'pairs' list")
        rules = []
        for entry in obj["pairs"]:
            try:
                types = entry["types"]
                if len(types) != 2:
                    raise ConfigError(f"pair rule needs exactly two types, got {types!r}")
                rules.append(
                    PairRule(
                        types=(str(types[0]), str(types[1])),
                        category=str(entry["category"]),
                        positive=[str(x) for x in entry["positive"]],
                        negative=str(entry["negative"]),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"malformed pair rule: {entry!r}") from exc
        if not rules:
            raise ConfigError("pair schema has no rules")
        return cls(rules)


def load_schema(path: str) -> PairSchema:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return PairSchema.from_dict(obj)


# ---------------------------------------------------------------------------
# blinding, position features, pair enumeration
# ---------------------------------------------------------------------------


def blind_and_position(
    sentence: AnnotatedSentence,
    pair: Tuple[Concept, Concept],
    label: str,
    clip: int = 50,
    blind: str = "all",
) -> RelationSample:
    """Collapses concept spans to single type tokens and computes the
    per-token signed distances to the two target concepts.

    ``blind="all"`` replaces every annotated concept; ``blind="targets"``
    replaces only the pair under classification.
    """
    if blind not in ("all", "targets"):
        raise ConfigError(f"unknown blind mode '{blind}'")
    c1, c2 = pair
    if c1.start > c2.start:
        c1, c2 = c2, c1
    to_blind = sentence.concepts if blind == "all" else [c1, c2]
    by_start = {c.start: c for c in to_blind}

    blinded: List[str] = []
    new_index: Dict[str, int] = {}
    t = 0
    n = len(sentence.tokens)
    while t < n:
        concept = by_start.get(t)
        if concept is not None:
            new_index[concept.id] = len(blinded)
            blinded.append(concept.type.upper())
            t = concept.end + 1
        else:
            blinded.append(sentence.tokens[t])
            t += 1

    # targets keep their position even when not blinded themselves
    if c1.id not in new_index or c2.id not in new_index:
        raise DataError("target concept missing from blinded sentence")
    i1, i2 = new_index[c1.id], new_index[c2.id]
    steps = np.arange(len(blinded))
    return RelationSample(
        tokens=blinded,
        c1_index=i1,
        c2_index=i2,
        label=label,
        pos1=np.clip(steps - i1, -clip, clip).tolist(),
        pos2=np.clip(steps - i2, -clip, clip).tolist(),
        sample_id=f"{sentence.sent_id}:{c1.id}:{c2.id}",
    )


def enumerate_pairs(
    sentence: AnnotatedSentence,
    schema: PairSchema,
    clip: int = 50,
    blind: str = "all",
) -> List[RelationSample]:
    """Emits one sample per unordered concept pair whose type pair the
    schema covers; unannotated pairs get the rule's negative label."""
    annotated: Dict[frozenset, str] = {}
    for rel in sentence.relations:
        key = frozenset((rel.a, rel.b))
        if key in annotated and annotated[key] != rel.label:
            raise DataError(
                f"{sentence.sent_id}: concept pair {set(key)} carries two relations "
                f"({annotated[key]}, {rel.label})"
            )
        annotated[key] = rel.label

    concepts = sorted(sentence.concepts, key=lambda c: c.start)
    samples = []
    for i in range(len(concepts)):
        for j in range(i + 1, len(concepts)):
            ca, cb = concepts[i], concepts[j]
            rule = schema.lookup(ca.type, cb.type)
            if rule is None:
                continue
            label = annotated.get(frozenset((ca.id, cb.id)), rule.negative)
            samples.append(blind_and_position(sentence, (ca, cb), label, clip=clip, blind=blind))
    return samples


def corpus_samples(
    sentences: Iterable[AnnotatedSentence],
    schema: PairSchema,
    clip: int = 50,
    blind: str = "all",
) -> List[RelationSample]:
    out: List[RelationSample] = []
    for sentence in sentences:
        out.extend(enumerate_pairs(sentence, schema, clip=clip, blind=blind))
    return out


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


class Vocab:
    """Token and position id maps plus the class index.

    Reserved token ids: PAD=0, UNK=1. Position ids cover the clipped range
    [-clip, clip] plus PAD=0.
    """

    def __init__(
        self,
        tokens: List[str],
        clip: int,
        class_names: List[str],
        positive_classes: List[str],
        blind: str = "all",
    ):
        self.clip = clip
        self.blind = blind
        self.itos = [PAD_TOKEN, UNK_TOKEN] + tokens
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        self.class_names = list(class_names)
        self.class_index = {name: i for i, name in enumerate(self.class_names)}
        self.positive_classes = list(positive_classes)

    @property
    def n_tokens(self) -> int:
        return len(self.itos)

    @property
    def n_positions(self) -> int:
        return 2 * self.clip + 2  # full clipped range plus PAD

    def encode_token(self, token: str) -> int:
        return self.stoi.get(token, UNK_ID)

    def encode_position(self, distance):
        """Id of a signed distance, or of each in an array of them."""
        return np.clip(distance, -self.clip, self.clip) + self.clip + 1

    def to_dict(self) -> dict:
        return {
            "tokens": self.itos[2:],
            "clip": self.clip,
            "blind": self.blind,
            "class_names": self.class_names,
            "positive_classes": self.positive_classes,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Vocab":
        return cls(
            tokens=list(obj["tokens"]),
            clip=int(obj["clip"]),
            class_names=list(obj["class_names"]),
            positive_classes=list(obj["positive_classes"]),
            blind=str(obj.get("blind", "all")),
        )


def build_vocab(
    samples: Sequence[RelationSample],
    schema: PairSchema,
    min_count: int = 1,
    clip: int = 50,
    blind: str = "all",
) -> Vocab:
    """Token vocabulary from the training samples only; tokens below
    ``min_count`` encode to UNK."""
    if not samples:
        raise InputError("cannot build a vocabulary from zero samples")
    counts = Counter(tok for s in samples for tok in s.tokens)
    kept = sorted((tok for tok, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    return Vocab(
        kept,
        clip=clip,
        class_names=schema.class_names,
        positive_classes=schema.positive_classes,
        blind=blind,
    )


# ---------------------------------------------------------------------------
# folds and batching
# ---------------------------------------------------------------------------


def make_folds(samples: Sequence[RelationSample], folds: int, seed: int) -> np.ndarray:
    """Stratified fold assignment; per class, fold sizes differ by at most
    one. Returns an int array of fold ids per sample."""
    if folds < 2:
        raise InputError("need at least 2 folds")
    if len(samples) < folds:
        raise InputError(f"{len(samples)} samples cannot fill {folds} folds")
    rng = make_rng(seed)
    by_class: Dict[str, List[int]] = {}
    for idx, sample in enumerate(samples):
        by_class.setdefault(sample.label, []).append(idx)
    assignment = np.zeros(len(samples), dtype=np.int64)
    for label in sorted(by_class):
        indices = np.array(by_class[label])
        if len(indices) < folds:
            log.warning("class '%s' has %d samples for %d folds; some folds will lack it", label, len(indices), folds)
        rng.shuffle(indices)
        for pos, idx in enumerate(indices):
            assignment[idx] = pos % folds
    return assignment


@dataclass
class EncodedCorpus:
    """A corpus as id arrays: sample i owns columns ``offsets[i]:offsets[i+1]``
    of ``ids``, whose rows hold token, pos1 and pos2 ids. ``short`` marks the
    samples stored right-padded with PAD ids to the convolution window."""

    ids: np.ndarray  # (3, total) int64
    offsets: np.ndarray  # (n + 1,) int64
    labels: np.ndarray  # (n,) class indices
    sample_ids: List[str]
    distances: List[int]
    short: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return len(self.labels)


def encode(samples: Sequence[RelationSample], vocab: Vocab, k: int) -> EncodedCorpus:
    """Looks every token, position and label of a corpus up in the
    vocabulary. Samples shorter than ``k`` are right-padded with PAD ids to
    width ``k``."""
    lengths = np.array([len(s.tokens) for s in samples], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(np.maximum(lengths, k))])
    ids = np.full((3, offsets[-1]), PAD_ID, dtype=np.int64)
    for sample, lo, n in zip(samples, offsets, lengths):
        ids[0, lo : lo + n] = [vocab.encode_token(t) for t in sample.tokens]
        ids[1:, lo : lo + n] = vocab.encode_position(np.array([sample.pos1, sample.pos2]))
    return EncodedCorpus(
        ids=ids,
        offsets=offsets,
        labels=np.array([vocab.class_index[s.label] for s in samples], dtype=np.int64),
        sample_ids=[s.sample_id for s in samples],
        distances=[s.distance for s in samples],
        short=lengths < k,
    )


@dataclass
class SequenceBatch:
    """Padded id grids, plus labels and bookkeeping. Row i holds
    ``lengths[i]`` valid steps followed by PAD ids."""

    token_ids: np.ndarray  # (batch, max_len) int64
    pos1_ids: np.ndarray
    pos2_ids: np.ndarray
    lengths: np.ndarray  # (batch,)
    labels: np.ndarray  # (batch,) class indices
    sample_ids: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.lengths)


def batchify(corpus: EncodedCorpus, order: Sequence[int], batch_size: int) -> Tuple[List[SequenceBatch], int]:
    """Slices padded batches out of an encoded corpus, taking its samples in
    ``order``. Returns the batches and the number of corpus samples the
    order leaves out."""
    if batch_size < 1:
        raise InputError("batch_size must be >= 1")
    order = np.asarray(order, dtype=np.int64)
    batches = []
    for lo in range(0, len(order), batch_size):
        idx = order[lo : lo + batch_size]
        lengths = corpus.offsets[idx + 1] - corpus.offsets[idx]
        grids = np.full((3, len(idx), lengths.max()), PAD_ID, dtype=np.int64)
        for row, i in enumerate(idx):
            grids[:, row, : lengths[row]] = corpus.ids[:, corpus.offsets[i] : corpus.offsets[i + 1]]
        batches.append(SequenceBatch(*grids, lengths, corpus.labels[idx], [corpus.sample_ids[i] for i in idx]))
    return batches, len(corpus) - len(order)


# ---------------------------------------------------------------------------
# optional pre-trained embeddings
# ---------------------------------------------------------------------------


def load_pretrained_embeddings(path: str) -> Tuple[Dict[str, np.ndarray], int]:
    """word2vec text format: header '<count> <dim>', then one word + vector
    per line. Returns (word -> vector, dim)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ParseError(f"{path}: expected '<count> <dim>' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ParseError(f"{path}: non-integer header fields") from exc
        vectors: Dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ParseError(f"{path}:{lineno}: expected {dim} values")
            vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
    if len(vectors) != count:
        log.warning("%s: header promised %d vectors, found %d", path, count, len(vectors))
    return vectors, dim


def apply_pretrained(word_table: np.ndarray, vocab: Vocab, vectors: Dict[str, np.ndarray]) -> int:
    """Fills matching word-table columns in place; returns hit count."""
    dim = word_table.shape[0]
    hits = 0
    for token, idx in vocab.stoi.items():
        if idx == PAD_ID:
            continue
        vec = vectors.get(token)
        if vec is None:
            continue
        if vec.shape[0] != dim:
            raise ConfigError(f"pretrained dim {vec.shape[0]} != word embedding size {dim}")
        word_table[:, idx] = vec
        hits += 1
    return hits
