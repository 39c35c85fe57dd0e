"""Seeded train + eval --ci runs of every variant reproduce the committed
reference values: floats to a relative 1e-9, so that another BLAS or CPU
may differ in the last bits, and labels, counts and keys exactly. See
``tests/reference_values.py`` for what is kept and how to regenerate it."""

import json
import math

from reference_values import REFERENCE, collect


def _mismatches(got, want, path="$"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        ok = isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


def test_seeded_runs_match_reference_values(tmp_path):
    want = json.loads(REFERENCE.read_text())
    got = json.loads(json.dumps(collect(tmp_path)))  # the file's types: tuples become lists
    bad = _mismatches(got, want)
    assert not bad, f"{len(bad)} values moved, first: " + "; ".join(bad[:10])


def test_comparison_tolerates_last_bits_only():
    want = {"loss": [1.25, 0.0], "predicted": ["A", "B"], "support": 3}
    assert not _mismatches({"loss": [1.25 * (1 + 1e-12), 1e-15], "predicted": ["A", "B"], "support": 3}, want)
    assert _mismatches({"loss": [1.25 * (1 + 1e-8), 0.0], "predicted": ["A", "B"], "support": 3}, want)
    assert _mismatches({"loss": [1.25, 0.0], "predicted": ["A", "A"], "support": 3}, want)
    assert _mismatches({"loss": [1.25, 0.0], "predicted": ["A", "B"], "support": 3.0}, want)
    assert _mismatches({"loss": [1.25], "predicted": ["A", "B"], "support": 3}, want)
