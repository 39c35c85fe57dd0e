"""Corpus ingestion and preprocessing: JSONL parsing, concept blinding,
relation-pair enumeration with negative labeling, vocabulary construction,
stratified fold splitting, encoding with position features, and batching.

``encode`` turns a corpus into one block of id columns once; it is the only
place tokens, positions and labels are looked up in the vocabulary, and it
derives each token's clipped distance to the two targets itself. A sample
with fewer than ``k`` blinded tokens is right-padded with PAD ids to width
``k`` (PAD embeddings are zero and frozen), so training and scoring see every
sample the same way. ``gather`` and ``batchify`` only gather the samples'
columns out of an encoded corpus in a given order.

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
import re
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit generator (PCG64), whatever numpy's default
    becomes: same seed, same stream."""
    return np.random.Generator(np.random.PCG64(seed))


def check_int(name: str, value, low: int, error: type = ConfigError) -> None:
    """Raises ``error`` unless ``value`` is an integer, not a bool, and at
    least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def utf8_lines(path: str, error: type) -> Iterator[str]:
    """The lines of a text file, split as ``open`` splits them; a line that
    is not UTF-8 raises ``error`` naming the path and the line. A byte that
    does not decode is read as a lone surrogate, which UTF-8 text never
    holds."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise error(f"{path}:{lineno}: not UTF-8 text")
            yield line


def read_json(path: str):
    """The JSON value a UTF-8 file holds. Text that is not UTF-8 or not
    JSON raises ConfigError naming the path."""
    try:
        return json.loads("".join(utf8_lines(path, ConfigError)))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def from_section(cls, obj, where: str):
    """One config dataclass from a JSON object: ``cls(**obj)``, then its
    ``validate()``. A non-object, an unknown key or a missing required key
    raises ConfigError; every ConfigError, ``validate``'s too, comes out
    prefixed with ``where``, e.g. ``run.json: model: d_w must be an integer``."""
    try:
        if not isinstance(obj, dict):
            raise ConfigError(f"must be a JSON object, got {type(obj).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(obj) - set(known))
        missing = [n for n, f in known.items() if n not in obj and f.default is MISSING and f.default_factory is MISSING]
        if unknown or missing:
            raise ConfigError(f"unknown keys {unknown}" if unknown else f"missing keys {missing}")
        section = cls(**obj)
        section.validate()
        return section
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def is_str_list(value) -> bool:
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))


def check_str(name: str, value, optional: bool = False) -> None:
    """Raises ConfigError unless ``value`` is a string, or None if ``optional``."""
    if not isinstance(value, str) and not (optional and value is None):
        raise ConfigError(f"{name} must be a string{' or null' if optional else ''}, got {value!r}")


def check_blind(value) -> None:
    """Raises ConfigError unless ``value`` names a blinding mode."""
    if value not in ("all", "targets"):
        raise ConfigError(f"blind must be 'all' or 'targets', got {value!r}")


def check_real(name: str, value) -> None:
    """Raises ConfigError unless ``value`` is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


_start = attrgetter("start")
_span = attrgetter("start", "end")
# an id holding one of these would break the TSV rows it is written into
_TSV_BREAK = re.compile("[\t\r\n]")


class Concept(NamedTuple):
    id: str
    start: int
    end: int
    type: str


class Relation(NamedTuple):
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
    """One (sentence, concept pair, label) instance after blinding. The
    position features are not stored: ``encode`` derives them from the
    target indices and the vocabulary's clip."""

    tokens: List[str]
    c1_index: int
    c2_index: int
    label: str
    sample_id: str = ""


# ---------------------------------------------------------------------------
# corpus parsing
# ---------------------------------------------------------------------------


def _validate_sentence(obj: dict, where: str) -> AnnotatedSentence:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: not a JSON object")
    tokens = obj.get("tokens")
    if not is_str_list(tokens):
        raise ParseError(f"{where}: 'tokens' must be a list of strings")
    sent_id = obj.get("id", "")
    if not isinstance(sent_id, str):
        raise ParseError(f"{where}: 'id' must be a string, got {sent_id!r}")
    if _TSV_BREAK.search(sent_id):
        raise ParseError(f"{where}: 'id' must not hold a tab or line break, got {sent_id!r}")
    concept_entries = obj.get("concepts", [])
    relation_entries = obj.get("relations", [])
    for key, entries in (("concepts", concept_entries), ("relations", relation_entries)):
        if not isinstance(entries, list):
            raise ParseError(f"{where}: '{key}' must be a list")
    n = len(tokens)
    concepts = []
    for c in concept_entries:
        try:
            concept = Concept(c["id"], c["start"], c["end"], c["type"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: malformed concept entry: {c!r}") from exc
        cid, start, end, ctype = concept
        if not (isinstance(cid, str) and isinstance(ctype, str)):
            key, value = ("type", ctype) if isinstance(cid, str) else ("id", cid)
            raise ParseError(f"{where}: concept '{key}' must be a string, got {value!r}")
        if _TSV_BREAK.search(cid):
            raise ParseError(f"{where}: concept 'id' must not hold a tab or line break, got {cid!r}")
        # so the last two fields of a sample id ``sent:c1:c2`` are the concept ids
        if ":" in cid:
            raise ParseError(f"{where}: concept 'id' must not hold ':', got {cid!r}")
        if type(start) is not int or type(end) is not int:  # bool is not an int here
            raise ParseError(f"{where}: concept {cid} 'start' and 'end' must be integers")
        if not 0 <= start <= end < n:
            raise ParseError(f"{where}: concept {cid} span [{start},{end}] out of range")
        concepts.append(concept)

    known = {c.id for c in concepts}
    if len(known) != len(concepts):
        raise ParseError(f"{where}: duplicate concept ids")
    spans = sorted(concepts, key=_span)
    for prev, cur in zip(spans, spans[1:]):
        if cur.start <= prev.end:
            raise ParseError(f"{where}: concepts {prev.id} and {cur.id} overlap")

    relations = []
    for r in relation_entries:
        try:
            rel = Relation(r["a"], r["b"], r["label"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{where}: malformed relation entry: {r!r}") from exc
        if not all(map(isinstance, rel, repeat(str))):
            key, value = next((k, v) for k, v in zip(Relation._fields, rel) if not isinstance(v, str))
            raise ParseError(f"{where}: relation '{key}' must be a string, got {value!r}")
        for endpoint in (rel.a, rel.b):
            if endpoint not in known:
                raise ParseError(f"{where}: relation references unknown concept id '{endpoint}'")
        if rel.a == rel.b:
            raise ParseError(f"{where}: relation relates concept '{rel.a}' to itself")
        relations.append(rel)
    return AnnotatedSentence(tokens, concepts, relations, sent_id=sent_id)


def parse_corpus(path: str) -> List[AnnotatedSentence]:
    """Reads a JSONL corpus; a malformed line raises ParseError naming it.
    A line without an id gets the id ``s<line number>``, and no two lines
    may share an id."""
    sentences: List[AnnotatedSentence] = []
    first_line: Dict[str, int] = {}
    for lineno, line in enumerate(utf8_lines(path, ParseError), start=1):
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
        first = first_line.setdefault(sent.sent_id, lineno)
        if first != lineno:
            raise ParseError(f"{where}: sentence id '{sent.sent_id}' is already the id of line {first}")
        sentences.append(sent)
    return sentences


# ---------------------------------------------------------------------------
# pair schema
# ---------------------------------------------------------------------------


@dataclass
class PairRule:
    types: List[str]
    category: str
    positive: List[str]
    negative: str

    def validate(self) -> None:
        if not (is_str_list(self.types) and len(self.types) == 2):
            raise ConfigError(f"types must be a list of two strings, got {self.types!r}")
        if not is_str_list(self.positive):
            raise ConfigError(f"positive must be a list of strings, got {self.positive!r}")
        check_str("category", self.category)
        check_str("negative", self.negative)
        for label in self.positive + [self.negative]:
            if _TSV_BREAK.search(label):
                raise ConfigError(f"label must not hold a tab or line break, got {label!r}")


class PairSchema:
    """Maps unordered concept-type pairs to their positive label set and
    negative (no-relation) label. Each rule is stored under both orders of
    its types, so a lookup needs no sorting. No label is positive in one
    rule and negative in another, or in the same one, each positive label
    has one category, and some rule lists a positive label.

    ``class_names`` lists every label and ``positive_classes`` the positive
    ones, each in order of first appearance; ``class_to_category`` maps each
    label to the category of the first rule that lists it."""

    def __init__(self, rules: Sequence[PairRule]):
        self.rules = list(rules)
        self._by_types: Dict[Tuple[str, str], PairRule] = {}
        self.class_to_category: Dict[str, str] = {}
        # the first rule that lists each label as negative, and as positive
        negative: Dict[str, int] = {}
        positive: Dict[str, int] = {}
        for i, rule in enumerate(self.rules):
            a, b = rule.types
            if (a, b) in self._by_types:
                raise ConfigError(f"duplicate pair rule for types {tuple(sorted(rule.types))}")
            self._by_types[a, b] = self._by_types[b, a] = rule
            negative.setdefault(rule.negative, i)
            for label in rule.positive:
                first = self.rules[positive.setdefault(label, i)]
                if first.category != rule.category:
                    raise ConfigError(
                        f"pair rule {i}: positive label {label!r} is under category {rule.category!r} "
                        f"here and {first.category!r} in pair rule {positive[label]}"
                    )
            for label in rule.positive + [rule.negative]:
                if label in positive and label in negative:
                    raise ConfigError(
                        f"pair rule {i}: label {label!r} is positive in pair rule {positive[label]} "
                        f"and negative in pair rule {negative[label]}"
                    )
                self.class_to_category.setdefault(label, rule.category)
        if not positive:
            raise ConfigError("no pair rule lists a positive label")
        self.class_names = list(self.class_to_category)
        self.positive_classes = list(positive)

    def lookup(self, type_a: str, type_b: str) -> Optional[PairRule]:
        return self._by_types.get((type_a, type_b))

    @classmethod
    def from_dict(cls, obj, where: str = "pair schema") -> "PairSchema":
        """A schema from its JSON object, ``{"pairs": [rule, ...]}``. Each rule
        goes through ``from_section``; an error names ``where`` and the rule."""
        if not isinstance(obj, dict) or not isinstance(obj.get("pairs"), list):
            raise ConfigError(f"{where}: pair schema must be an object with a 'pairs' list")
        if not obj["pairs"]:
            raise ConfigError(f"{where}: pair schema has no rules")
        rules = [from_section(PairRule, entry, f"{where}: pair rule {i}") for i, entry in enumerate(obj["pairs"])]
        try:
            return cls(rules)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc


def load_schema(path: str) -> PairSchema:
    return PairSchema.from_dict(read_json(path), path)


# ---------------------------------------------------------------------------
# blinding and pair enumeration
# ---------------------------------------------------------------------------


def blind_concepts(tokens: List[str], concepts: Sequence[Concept]) -> Tuple[List[str], Dict[str, int]]:
    """Collapses each of ``concepts``' spans in ``tokens`` to one upper-cased
    type token. Returns the blinded tokens and each concept's index in them.

    The spans are taken in start order and the tokens between them are
    copied by slice. A concept that starts inside a blinded span gets no
    index; of two concepts with one start, the one listed last is blinded."""
    blinded: List[str] = []
    new_index: Dict[str, int] = {}
    t = 0
    # sorting the reversed list puts the last-listed of equal starts first
    for concept in sorted(reversed(concepts), key=_start):
        if concept.start < t:
            continue
        blinded += tokens[t : concept.start]
        new_index[concept.id] = len(blinded)
        blinded.append(concept.type.upper())
        t = concept.end + 1
    blinded += tokens[t:]
    return blinded, new_index


def enumerate_pairs(
    sentence: AnnotatedSentence,
    schema: PairSchema,
    blind: str = "all",
) -> List[RelationSample]:
    """Emits one sample per unordered concept pair whose type pair the
    schema covers; unannotated pairs get the rule's negative label, and an
    annotated label that is not one of the rule's raises DataError.

    Each sample's concept spans collapse to single type tokens.
    ``blind="all"`` replaces every annotated concept, so the sentence is
    blinded once for all of its pairs; ``blind="targets"`` replaces only the
    pair under classification. ``encode`` derives the position features
    from the target indices with the vocabulary's clip.
    """
    check_blind(blind)
    annotated: Dict[Tuple[str, str], str] = {}
    for a, b, label in sentence.relations:
        if annotated.get((a, b), label) != label:
            raise DataError(
                f"{sentence.sent_id}: concept pair ({a}, {b}) carries two relations ({annotated[a, b]}, {label})"
            )
        annotated[a, b] = annotated[b, a] = label

    concepts = sorted(sentence.concepts, key=_start)
    pairs = []
    for i, ca in enumerate(concepts):
        for cb in concepts[i + 1 :]:
            rule = schema.lookup(ca.type, cb.type)
            if rule is None:
                continue
            label = annotated.get((ca.id, cb.id), rule.negative)
            if label != rule.negative and label not in rule.positive:
                raise DataError(
                    f"{sentence.sent_id}: concept pair ({ca.id}, {cb.id}) has label {label!r}, "
                    f"which the rule for types ({ca.type}, {cb.type}) does not list"
                )
            pairs.append((ca, cb, label))
    shared = blind_concepts(sentence.tokens, concepts) if pairs and blind == "all" else None

    samples = []
    for c1, c2, label in pairs:
        tokens, new_index = shared or blind_concepts(sentence.tokens, (c1, c2))
        i1, i2 = new_index.get(c1.id), new_index.get(c2.id)
        # a target inside another concept's span (spans that overlap) has no index
        if i1 is None or i2 is None:
            raise DataError("target concept missing from blinded sentence")
        samples.append(RelationSample(tokens[:], i1, i2, label, f"{sentence.sent_id}:{c1.id}:{c2.id}"))
    return samples


def corpus_samples(
    sentences: Iterable[AnnotatedSentence],
    schema: PairSchema,
    clip: int = 50,
    blind: str = "all",
) -> List[RelationSample]:
    """``enumerate_pairs`` over a corpus, sentence after sentence. ``clip``
    is ignored: ``encode`` clips with the vocabulary's clip. The keyword
    stays for callers that pass it."""
    out: List[RelationSample] = []
    for sentence in sentences:
        out.extend(enumerate_pairs(sentence, schema, blind=blind))
    return out


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


@dataclass
class Vocab:
    """Token and position id maps plus the class index. A checkpoint stores
    the fields and reads them back with ``from_section``.

    Reserved token ids: PAD=0, UNK=1, then ``tokens`` in order. Position ids
    cover the clipped range [-clip, clip] plus PAD=0.
    """

    tokens: List[str]
    clip: int
    class_names: List[str]
    positive_classes: List[str]
    blind: str = "all"

    def __post_init__(self) -> None:
        # the id maps are not fields, so a checkpoint stores only the above
        self.validate()
        self.itos = [PAD_TOKEN, UNK_TOKEN] + self.tokens
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        self.class_index = {name: i for i, name in enumerate(self.class_names)}

    def validate(self) -> None:
        for name in ("tokens", "class_names", "positive_classes"):
            if not is_str_list(getattr(self, name)):
                raise ConfigError(f"{name} must be a list of strings")
        check_int("clip", self.clip, 0)
        check_blind(self.blind)

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
    one. One round-robin runs over the classes in turn, so each class starts
    at the fold after the last one the previous class filled, and no fold is
    empty. Returns an int array of fold ids per sample."""
    if folds < 2:
        raise InputError("need at least 2 folds")
    if len(samples) < folds:
        raise InputError(f"{len(samples)} samples cannot fill {folds} folds")
    rng = make_rng(seed)
    by_class: Dict[str, List[int]] = {}
    for idx, sample in enumerate(samples):
        by_class.setdefault(sample.label, []).append(idx)
    assignment = np.zeros(len(samples), dtype=np.int64)
    start = 0
    for label in sorted(by_class):
        indices = np.array(by_class[label])
        if len(indices) < folds:
            log.warning("class '%s' has %d samples for %d folds; some folds will lack it", label, len(indices), folds)
        rng.shuffle(indices)
        assignment[indices] = (start + np.arange(len(indices))) % folds
        start += len(indices)
    return assignment


@dataclass
class EncodedCorpus:
    """A corpus as id arrays: sample i owns columns ``offsets[i]:offsets[i+1]``
    of ``ids``, whose rows hold token, pos1 and pos2 ids. A sample shorter
    than the window k owns k columns: its tokens, then PAD ids."""

    ids: np.ndarray  # (3, total) int64
    offsets: np.ndarray  # (n + 1,) int64
    labels: np.ndarray  # (n,) class indices
    sample_ids: List[str]
    distances: List[int]

    def __len__(self) -> int:
        return len(self.labels)


def encode(samples: Sequence[RelationSample], vocab: Vocab, k: int) -> EncodedCorpus:
    """Looks every token, position and label of a corpus up in the
    vocabulary, in one pass over the corpus. Samples shorter than ``k`` are
    right-padded with PAD ids to width ``k``."""
    n = len(samples)
    lengths = np.fromiter((len(s.tokens) for s in samples), dtype=np.int64, count=n)
    c1 = np.fromiter((s.c1_index for s in samples), dtype=np.int64, count=n)
    c2 = np.fromiter((s.c2_index for s in samples), dtype=np.int64, count=n)
    offsets = np.concatenate([[0], np.cumsum(np.maximum(lengths, k))])
    ids = np.full((3, offsets[-1]), PAD_ID, dtype=np.int64)
    columns = run_columns(offsets[:-1], lengths)
    tokens = (vocab.encode_token(t) for s in samples for t in s.tokens)
    ids[0, columns] = np.fromiter(tokens, dtype=np.int64, count=len(columns))
    # each token's index within its sample, then its signed distance to each target
    steps = columns - np.repeat(offsets[:-1], lengths)
    ids[1, columns] = vocab.encode_position(steps - np.repeat(c1, lengths))
    ids[2, columns] = vocab.encode_position(steps - np.repeat(c2, lengths))
    return EncodedCorpus(
        ids=ids,
        offsets=offsets,
        labels=np.array([vocab.class_index[s.label] for s in samples], dtype=np.int64),
        sample_ids=[s.sample_id for s in samples],
        distances=np.abs(c2 - c1).tolist(),
    )


def run_columns(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The column indices of runs laid end to end, run i being the
    ``lengths[i]`` columns from ``starts[i]``: each run's columns shift by the
    distance from where it starts in the output to ``starts[i]``."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


@dataclass
class SequenceBatch:
    """The id columns of a batch's samples, sample after sample, plus labels
    and bookkeeping. Sample i owns ``lengths[i]`` columns of ``ids``, whose
    rows hold token, pos1 and pos2 ids."""

    ids: np.ndarray  # (3, sum of lengths) int64
    lengths: np.ndarray  # (batch,)
    labels: np.ndarray  # (batch,) class indices
    sample_ids: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.lengths)


def gather(corpus: EncodedCorpus, idx: np.ndarray) -> SequenceBatch:
    """The batch of the corpus samples ``idx``, in that order, with one
    fancy index over the id columns."""
    starts = corpus.offsets[idx]
    lengths = corpus.offsets[idx + 1] - starts
    sample_ids = [corpus.sample_ids[i] for i in idx]
    return SequenceBatch(corpus.ids[:, run_columns(starts, lengths)], lengths, corpus.labels[idx], sample_ids)


def batchify(corpus: EncodedCorpus, order: Sequence[int], batch_size: int) -> Tuple[List[SequenceBatch], int]:
    """Gathers batches of ``batch_size`` samples out of an encoded corpus,
    taking its samples in ``order``. Returns the batches and the number of
    corpus samples the order leaves out."""
    if batch_size < 1:
        raise InputError("batch_size must be >= 1")
    order = np.asarray(order, dtype=np.int64)
    batches = [gather(corpus, order[lo : lo + batch_size]) for lo in range(0, len(order), batch_size)]
    return batches, len(corpus) - len(order)


# ---------------------------------------------------------------------------
# optional pre-trained embeddings
# ---------------------------------------------------------------------------


def load_pretrained(path: str, word_table: np.ndarray, vocab: Vocab) -> int:
    """Reads a word2vec text file, a header '<count> <dim>' then one word
    and its vector per line, into ``word_table`` in one pass: each word of
    ``vocab`` but PAD gets its vector in its column, a repeated word its
    last. Trailing whitespace, such as the space the ``word2vec`` tool
    writes after every value, is ignored. Every line is checked, and ``dim``
    must equal the table's row count. Returns how many vocabulary words were
    found."""
    lines = utf8_lines(path, ParseError)
    header = next(lines, "").split()
    if len(header) != 2:
        raise ParseError(f"{path}: expected '<count> <dim>' header")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer header fields") from exc
    if dim != word_table.shape[0]:
        raise ConfigError(f"{path}: embedding width {dim} != model d_w {word_table.shape[0]}")
    hits = set()
    lineno = 1
    for lineno, line in enumerate(lines, start=2):
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise ParseError(f"{path}:{lineno}: expected {dim} values")
        try:
            vector = np.array([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric value") from exc
        if not np.isfinite(vector).all():
            raise ParseError(f"{path}:{lineno}: non-finite value")
        idx = vocab.stoi.get(parts[0], PAD_ID)
        if idx != PAD_ID:
            word_table[:, idx] = vector
            hits.add(idx)
    if lineno - 1 != count:
        log.warning("%s: header promised %d vectors, found %d", path, count, lineno - 1)
    return len(hits)
