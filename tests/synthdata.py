"""Synthetic corpora for tests: a keyword-separable single-category corpus,
an i2b2-style corpus with 3 categories / 8 positive classes, a corpus whose
label is the order of two cues, and a DDI-style drug-drug corpus."""

import json
from itertools import combinations_with_replacement

from cbgru.data import make_rng

SIMPLE_SCHEMA = {
    "pairs": [
        {
            "types": ["treatment", "problem"],
            "category": "TrP",
            "positive": ["REL_A", "REL_B", "REL_C"],
            "negative": "NONE",
        }
    ]
}

I2B2_STYLE_SCHEMA = {
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

# label -> keyword token placed between the two concepts
SIMPLE_KEYWORDS = {"REL_A": "improves", "REL_B": "worsens", "REL_C": "causes", "NONE": "near"}


def make_separable_corpus(n_samples=200, vocab_size=50, seed=0):
    """Sentences with one treatment-problem pair each; the label is fully
    determined by the keyword between the concepts. Filler tokens plus the
    four keywords stay within ``vocab_size`` distinct words."""
    rng = make_rng(seed)
    labels = sorted(SIMPLE_KEYWORDS)
    fillers = [f"w{i}" for i in range(vocab_size - len(labels))]
    sentences = []
    for i in range(n_samples):
        label = labels[i % len(labels)]
        kw = SIMPLE_KEYWORDS[label]
        pick = lambda: fillers[int(rng.integers(0, len(fillers)))]
        lead = [pick() for _ in range(int(rng.integers(1, 3)))]
        mid = [pick() for _ in range(int(rng.integers(0, 2)))]
        tail = [pick() for _ in range(int(rng.integers(1, 3)))]
        treat_span = [pick()]
        prob_span = [pick() for _ in range(int(rng.integers(1, 3)))]

        tokens = lead + treat_span + [kw] + mid + prob_span + tail
        t_start = len(lead)
        p_start = t_start + len(treat_span) + 1 + len(mid)
        concepts = [
            {"id": "c1", "start": t_start, "end": t_start + len(treat_span) - 1, "type": "treatment"},
            {"id": "c2", "start": p_start, "end": p_start + len(prob_span) - 1, "type": "problem"},
        ]
        relations = [] if label == "NONE" else [{"a": "c1", "b": "c2", "label": label}]
        sentences.append({"id": f"syn{i}", "tokens": tokens, "concepts": concepts, "relations": relations})
    return sentences


def make_i2b2_style_corpus(n_sentences=120, seed=0):
    """Smoke-test corpus exercising all 3 categories and 8 positive
    classes; labels are assigned randomly (no separability needed)."""
    rng = make_rng(seed)
    rules = {tuple(sorted(r["types"])): r for r in I2B2_STYLE_SCHEMA["pairs"]}
    types = ["treatment", "problem", "test", "problem"]
    fillers = [f"tok{i}" for i in range(60)]
    sentences = []
    for i in range(n_sentences):
        n_concepts = int(rng.integers(2, 4))
        tokens = []
        concepts = []
        for c in range(n_concepts):
            tokens += [fillers[int(rng.integers(0, len(fillers)))] for _ in range(int(rng.integers(1, 4)))]
            ctype = types[int(rng.integers(0, len(types)))]
            span = int(rng.integers(1, 3))
            concepts.append(
                {"id": f"c{c}", "start": len(tokens), "end": len(tokens) + span - 1, "type": ctype}
            )
            tokens += [fillers[int(rng.integers(0, len(fillers)))] for _ in range(span)]
        tokens += [fillers[int(rng.integers(0, len(fillers)))] for _ in range(int(rng.integers(1, 3)))]

        relations = []
        for a in range(n_concepts):
            for b in range(a + 1, n_concepts):
                rule = rules.get(tuple(sorted((concepts[a]["type"], concepts[b]["type"]))))
                if rule is None or rng.random() < 0.5:
                    continue
                label = rule["positive"][int(rng.integers(0, len(rule["positive"])))]
                relations.append({"a": f"c{a}", "b": f"c{b}", "label": label})
        sentences.append({"id": f"i2b2syn{i}", "tokens": tokens, "concepts": concepts, "relations": relations})
    return sentences


ORDER_SCHEMA = {
    "pairs": [{"types": ["treatment", "problem"], "category": "TrP", "positive": ["CX_FIRST"], "negative": "NONE"}]
}


def make_order_corpus(n_sentences=300, k=3, seed=0):
    """Sentences of 14-21 tokens with one treatment-problem pair, the two
    targets at both ends. Two cue tokens, ``cx`` and ``cy``, sit between
    them, each at least ``k`` tokens from either target and at least 5
    tokens from the other; every other token is one of 30 fillers. The
    pair is CX_FIRST when ``cx`` comes first, else NONE, in turn.

    No window of ``k`` tokens holds both cues, so the order is there only
    for a layer that reads along the sentence. Train on it with the position
    features off (``clip`` 0): each cue's distance to the targets also gives
    the order away."""
    rng = make_rng(seed)
    fillers = [f"f{i}" for i in range(30)]
    sentences = []
    for i in range(n_sentences):
        n = int(rng.integers(14, 22))
        first, second = 0, 0
        while second - first < 5:
            first, second = sorted(int(x) for x in rng.integers(k, n - k, size=2))
        tokens = [fillers[int(x)] for x in rng.integers(0, len(fillers), size=n)]
        cx_first = i % 2 == 0
        tokens[first], tokens[second] = ("cx", "cy") if cx_first else ("cy", "cx")
        concepts = [
            {"id": "c1", "start": 0, "end": 0, "type": "treatment"},
            {"id": "c2", "start": n - 1, "end": n - 1, "type": "problem"},
        ]
        relations = [{"a": "c1", "b": "c2", "label": "CX_FIRST"}] if cx_first else []
        sentences.append({"id": f"order{i}", "tokens": tokens, "concepts": concepts, "relations": relations})
    return sentences


DDI_TYPES = ["drug", "brand", "group", "drug_n"]
# the DDI 2013 shape: one rule per unordered pair of drug types, same-type pairs included
DDI_SCHEMA = {
    "pairs": [
        {"types": list(types), "category": "DDI", "positive": ["advise", "effect", "mechanism", "int"], "negative": "false"}
        for types in combinations_with_replacement(DDI_TYPES, 2)
    ]
}
# label -> cue token placed between two related drugs
DDI_CUES = {"advise": "should", "effect": "enhances", "mechanism": "reduces", "int": "with"}


def make_ddi_corpus(n_sentences=200, seed=0):
    """Sentences of two or three drug mentions, each of a random one of the
    four types, so every type pair occurs, same-type pairs included. The
    even-numbered sentences relate two neighbouring mentions, with the cue
    token of the label between them. All remaining pairs, about 3 in 4, are
    negative. In a three-mention sentence, the pair that spans the related
    one also has the cue between its drugs, and only the position features
    tell the two apart. All other tokens are among 30 fillers."""
    rng = make_rng(seed)
    fillers = [f"f{i}" for i in range(30)]
    pick = lambda n: [fillers[int(x)] for x in rng.integers(0, len(fillers), size=n)]
    labels = sorted(DDI_CUES)
    sentences = []
    for i in range(n_sentences):
        n_drugs = int(rng.integers(2, 4))
        related = int(rng.integers(0, n_drugs - 1)) if i % 2 == 0 else None
        label = labels[int(rng.integers(0, len(labels)))]
        tokens = pick(int(rng.integers(1, 3)))
        concepts = []
        for c in range(n_drugs):
            if c:
                tokens += ([DDI_CUES[label]] if c - 1 == related else []) + pick(int(rng.integers(1, 3)))
            span = int(rng.integers(1, 3))
            ctype = DDI_TYPES[int(rng.integers(0, len(DDI_TYPES)))]
            concepts.append({"id": f"d{c}", "start": len(tokens), "end": len(tokens) + span - 1, "type": ctype})
            tokens += pick(span)
        tokens += pick(int(rng.integers(1, 3)))
        relations = [] if related is None else [{"a": f"d{related}", "b": f"d{related + 1}", "label": label}]
        sentences.append({"id": f"ddi{i}", "tokens": tokens, "concepts": concepts, "relations": relations})
    return sentences


def write_jsonl(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(json.dumps(sent) + "\n")


def write_schema(path, schema):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
