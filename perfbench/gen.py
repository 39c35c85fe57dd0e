"""Seeded i2b2-style corpus generator owned by the benchmark.

The program under test only ever sees the JSONL corpora and the schema
file written here. Properties of every generated corpus:

- the 3-category / 8-positive-class pair schema below;
- 2 to 4 concepts per sentence;
- lognormal blinded sentence lengths, mean about 20 tokens, tail to 100,
  drawn at stratified quantiles and crossed with a fixed mix of concept
  patterns, so that two seeds give nearly the same amount of work;
- Zipfian filler tokens over a fixed type inventory;
- a cue word between most related concept pairs, so training learns;
- 2% extra two-concept fragments whose blinded length (2) is below the
  convolution window k=3. The package drops such pairs at eval time; they
  are kept on purpose so the benchmark shows it. Every other sentence has
  at least k blinded tokens, so a corpus of n sentences holds exactly
  round(0.02 n) short pairs, whatever the seed.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist
from typing import List

import numpy as np

SCHEMA = {
    "pairs": [
        {
            "types": ["treatment", "problem"],
            "category": "TrP",
            "positive": ["TrIP", "TrWP", "TrCP", "TrAP", "TrNAP"],
            "negative": "NTrP",
        },
        {
            "types": ["test", "problem"],
            "category": "TeP",
            "positive": ["TeRP", "TeCP"],
            "negative": "NTeP",
        },
        {
            "types": ["problem", "problem"],
            "category": "PP",
            "positive": ["PIP"],
            "negative": "NPP",
        },
    ]
}

# i2b2-like skew of the positive labels within each rule
LABEL_WEIGHTS = {
    "TrIP": 0.05, "TrWP": 0.05, "TrCP": 0.15, "TrAP": 0.65, "TrNAP": 0.10,
    "TeRP": 0.80, "TeCP": 0.20,
    "PIP": 1.0,
}

# Concept type patterns, 50% with two concepts, 30% three, 20% four. Every
# band of TEMPLATES consecutive lengths gets each pattern once, so the number
# of in-schema pairs and their lengths vary little between seeds.
TEMPLATES = (
    ("problem", "treatment"), ("problem", "treatment"), ("problem", "test"),
    ("problem", "problem"), ("treatment", "test"),
    ("problem", "treatment", "test"), ("problem", "problem", "treatment"),
    ("problem", "treatment", "treatment"),
    ("problem", "problem", "treatment", "test"), ("problem", "treatment", "test", "treatment"),
)
FRAGMENT_TEMPLATES = (("problem", "treatment"), ("problem", "test"), ("problem", "problem"))

LEN_MEDIAN = 17.0  # lognormal median; mean = median * exp(sigma^2 / 2) ~ 20
LEN_SIGMA = 0.55
LEN_MAX = 100
K = 3  # the convolution window of the benchmark's models
FRAGMENT_SHARE = 0.02  # extra bare in-schema pairs: blinded length 2 < k
RELATION_RATE = 0.35  # share of in-schema pairs that carry a positive label
CUE_RATE = 0.9  # related pairs with a cue word between the concepts
FALSE_CUE_RATE = 0.05  # unrelated pairs with a misleading cue
ZIPF_SHIFT = 2.7  # Zipf-Mandelbrot: p(rank) ~ 1 / (rank + shift)

_RULES = {tuple(sorted(r["types"])): r for r in SCHEMA["pairs"]}


class Lexicon:
    """Zipfian filler vocabulary of ``n_types`` word types."""

    def __init__(self, n_types: int) -> None:
        weights = 1.0 / (np.arange(n_types) + ZIPF_SHIFT)
        self.cdf = np.cumsum(weights / weights.sum())
        self.cdf[-1] = 1.0
        self.words = [f"w{i}" for i in range(n_types)]

    def draw(self, rng: np.random.Generator, n: int) -> List[str]:
        return [self.words[i] for i in np.searchsorted(self.cdf, rng.random(n), side="right")]


def _lengths(rng: np.random.Generator, n: int) -> List[int]:
    """Blinded lengths at stratified lognormal quantiles, ascending."""
    inv = NormalDist().inv_cdf
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n).clip(1e-9, 1 - 1e-9)) / n
    return [min(LEN_MAX, round(math.exp(math.log(LEN_MEDIAN) + LEN_SIGMA * inv(p)))) for p in u]


def _pick(rng: np.random.Generator, items, weights):
    return items[int(np.searchsorted(np.cumsum(weights), rng.random() * sum(weights), side="right"))]


def _sentence(rng: np.random.Generator, types: List[str], blinded_len: int, lexicon: Lexicon) -> dict:
    n_concepts = len(types)
    slots = np.sort(rng.choice(blinded_len, size=n_concepts, replace=False))
    slot_set = set(slots.tolist())
    # blinded slot -> raw tokens; a concept span is 1 to 3 raw tokens
    pieces: List[List[str]] = [[w] for w in lexicon.draw(rng, blinded_len)]
    for slot in slots:
        pieces[slot] = lexicon.draw(rng, int(rng.integers(1, 4)))

    relations = []
    for a in range(n_concepts):
        for b in range(a + 1, n_concepts):
            rule = _RULES.get(tuple(sorted((types[a], types[b]))))
            if rule is None:
                continue
            between = [s for s in range(slots[a] + 1, slots[b]) if s not in slot_set]
            if rng.random() < RELATION_RATE:
                label = _pick(rng, rule["positive"], [LABEL_WEIGHTS[c] for c in rule["positive"]])
                relations.append({"a": f"c{a}", "b": f"c{b}", "label": label})
                cue = between and rng.random() < CUE_RATE
            elif between and rng.random() < FALSE_CUE_RATE:
                label = rule["positive"][int(rng.integers(0, len(rule["positive"])))]
                cue = True
            else:
                cue = False
            if cue:
                pieces[between[int(rng.integers(0, len(between)))]] = [f"cue_{label}_{int(rng.integers(0, 2))}"]

    tokens: List[str] = []
    concepts = []
    for slot, piece in enumerate(pieces):
        if slot in slot_set:
            c = int(np.searchsorted(slots, slot))
            concepts.append({"id": f"c{c}", "start": len(tokens), "end": len(tokens) + len(piece) - 1, "type": types[c]})
        tokens.extend(piece)
    return {"tokens": tokens, "concepts": concepts, "relations": relations}


def make_corpus(rng: np.random.Generator, n_sentences: int, lexicon: Lexicon, prefix: str) -> List[dict]:
    """``n_sentences`` annotated sentences plus FRAGMENT_SHARE as many bare
    pairs, in random order, in the package's JSONL schema."""
    shapes = []
    for lo, blinded_len in enumerate(_lengths(rng, n_sentences)):
        if lo % len(TEMPLATES) == 0:
            band = rng.permutation(len(TEMPLATES))
        template = TEMPLATES[band[lo % len(TEMPLATES)]]
        # at least k, so the fragments below are the only short pairs
        shapes.append(([template[i] for i in rng.permutation(len(template))], max(len(template), K, blinded_len)))
    for _ in range(max(1, round(FRAGMENT_SHARE * n_sentences))):
        shapes.append((list(FRAGMENT_TEMPLATES[int(rng.integers(0, len(FRAGMENT_TEMPLATES)))]), 2))
    sentences = []
    for i, j in enumerate(rng.permutation(len(shapes))):
        types, blinded_len = shapes[j]
        sentences.append({"id": f"{prefix}{i}", **_sentence(rng, types, blinded_len, lexicon)})
    return sentences


def write_jsonl(path: str, sentences: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(json.dumps(sent) + "\n")


def write_schema(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(SCHEMA, fh, indent=2)
