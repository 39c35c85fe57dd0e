"""Measurement stack: per-class and per-category precision/recall/F1,
micro-averaged F1 over positive classes, bootstrap percentile confidence
intervals, and distance-binned F1 curves, all from integer confusion counts.

All metrics are reported in percent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .data import ConfigError, InputError, check_int, make_rng

# coverage of every bootstrap percentile interval
CI_LEVEL = 0.95


@dataclass(frozen=True)
class PredictionRecord:
    sample_id: str
    gold: str
    pred: str
    distance: int


def _prf(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise P/R/F1 in percent, in the scalar formulas' float operations; 0 where a denominator is 0."""
    p = np.divide(100.0 * tp, tp + fp, out=np.zeros(tp.shape), where=tp + fp != 0)
    r = np.divide(100.0 * tp, tp + fn, out=np.zeros(tp.shape), where=tp + fn != 0)
    f1 = np.divide(2.0 * p * r, p + r, out=np.zeros(tp.shape), where=p + r != 0)
    return p, r, f1


def _cells(records: Sequence[PredictionRecord], classes: Sequence[str]) -> np.ndarray:
    """Cell (K+1)·gold + pred per record; a label's code is i for ``classes[i]``, K for any other."""
    if not records:
        raise InputError("no prediction records to score")
    if not classes:
        raise InputError("positive class set is empty")
    code, k = {c: i for i, c in enumerate(classes)}, len(classes)
    cells = (code.get(r.gold, k) * (k + 1) + code.get(r.pred, k) for r in records)
    return np.fromiter(cells, np.intp, len(records))


def _group_scores(counts: np.ndarray, classes: Sequence[str], groups: Sequence[Sequence[str]]):
    """P, R, F1 and gold support, shaped (..., len(groups)), of each group of
    ``classes`` pooled over its members, from (..., (K+1)²) confusion counts."""
    k = len(classes)
    counts = counts.reshape(counts.shape[:-1] + (k + 1, k + 1))
    member = np.array([[c in g for g in groups] for c in classes], dtype=np.int64).reshape(k, len(groups))
    tp = np.diagonal(counts, axis1=-2, axis2=-1)[..., :k] @ member
    support = counts.sum(axis=-1)[..., :k] @ member
    return _prf(tp, counts.sum(axis=-2)[..., :k] @ member - tp, support - tp) + (support,)


def micro_f1(records: Sequence[PredictionRecord], positive_classes: Iterable[str],
             *, cells: Optional[np.ndarray] = None) -> Tuple[float, float, float]:
    """Pooled precision/recall/F1 over the positive classes; ``cells`` are the records' ``_cells`` codes."""
    positive = list(positive_classes)
    counts = np.bincount(_cells(records, positive) if cells is None else cells, minlength=(len(positive) + 1) ** 2)
    p, r, f1, _ = _group_scores(counts, positive, [positive])
    return float(p[0]), float(r[0]), float(f1[0])


def per_class_and_category(
    records: Sequence[PredictionRecord],
    class_to_category: Mapping[str, str],
    positive_classes: Iterable[str],
    *, cells: Optional[np.ndarray] = None,
) -> Dict[str, dict]:
    """One-vs-rest rows per positive class plus micro aggregates per
    category."""
    positive = list(positive_classes)
    for cls in positive:
        if cls not in class_to_category:
            raise ConfigError(f"positive class '{cls}' missing from the category map")
    members = {cat: [c for c in positive if class_to_category[c] == cat]
               for cat in sorted({class_to_category[c] for c in positive})}
    counts = np.bincount(_cells(records, positive) if cells is None else cells, minlength=(len(positive) + 1) ** 2)
    columns = _group_scores(counts, positive, [[c] for c in positive] + list(members.values()))
    rows = [dict(precision=p, recall=r, f1=f1, support=n) for p, r, f1, n in zip(*(a.tolist() for a in columns))]
    categories = {cat: {**row, "classes": m} for (cat, m), row in zip(members.items(), rows[len(positive):])}
    return {"classes": dict(zip(positive, rows)), "categories": categories}


def bootstrap_ci(
    records: Sequence[PredictionRecord],
    positive_sets: Sequence[Iterable[str]],
    b: int = 1000,
    seed: int = 0,
    *, cells: Optional[np.ndarray] = None,
) -> List[Tuple[float, float]]:
    """``CI_LEVEL`` percentile interval of the micro-F1 over each set of
    positive classes, from ``b`` bootstrap replicates. Every figure is a
    function of the confusion counts, and resampling the n records with
    replacement draws those counts from Multinomial(n, counts / n). So each
    replicate's counts are one multinomial draw over the nonempty cells, all
    replicates come from one rng seeded with ``seed``, and every set is
    scored from them."""
    check_int("bootstrap b", b, 100, InputError)
    groups = [list(s) for s in positive_sets]
    classes = list(dict.fromkeys(c for g in groups for c in g))
    cells, n = _cells(records, classes) if cells is None else cells, len(records)
    counts = np.bincount(cells, minlength=(len(classes) + 1) ** 2)
    used = np.flatnonzero(counts)
    drawn = np.zeros((b, counts.size), np.int64)
    drawn[:, used] = make_rng(seed).multinomial(n, counts[used] / n, size=b)
    f1 = _group_scores(drawn, classes, groups)[2]
    lo, hi = np.percentile(f1, [100.0 * (1.0 - CI_LEVEL) / 2.0, 100.0 * (1.0 + CI_LEVEL) / 2.0], axis=0)
    return list(zip(lo.tolist(), hi.tolist()))


def distance_curve(
    records: Sequence[PredictionRecord],
    positive_classes: Iterable[str],
    window: int = 2,
    min_support: int = 20,
    *, cells: Optional[np.ndarray] = None,
) -> List[Tuple[int, float]]:
    """F1 per concept distance d, computed over records whose distance
    falls in [d - window, d + window]. The curve is truncated at the
    largest d whose exact-distance count exceeds ``min_support``."""
    positive = list(positive_classes)
    k = len(positive)
    gold, pred = np.divmod(_cells(records, positive) if cells is None else cells, k + 1)
    distances, at, n_at = np.unique([r.distance for r in records], return_inverse=True, return_counts=True)
    eligible = distances[n_at > min_support]
    if not eligible.size:
        warnings.warn(f"no distance has more than {min_support} records; curve is empty")
        return []
    # records, tp, fp, fn at each distinct distance, then their running sums
    per = [n_at] + [np.bincount(at[m], minlength=distances.size)
                    for m in ((pred < k) & (gold == pred), (pred < k) & (gold != pred), (gold < k) & (gold != pred))]
    cum = np.concatenate([np.zeros((4, 1), np.int64), np.cumsum(per, axis=1)], axis=1)
    d = np.arange(1, int(eligible[-1]) + 1)
    n, tp, fp, fn = (cum[:, np.searchsorted(distances, d + window, side="right")]
                     - cum[:, np.searchsorted(distances, d - window, side="left")])
    return list(zip(d[n > 0].tolist(), _prf(tp[n > 0], fp[n > 0], fn[n > 0])[2].tolist()))


# ---------------------------------------------------------------------------
# report assembly and formatting
# ---------------------------------------------------------------------------


def build_report(
    records: Sequence[PredictionRecord],
    class_to_category: Mapping[str, str],
    positive_classes: Sequence[str],
    with_ci: bool = False,
    b: int = 1000,
    seed: int = 0,
) -> dict:
    positive = list(dict.fromkeys(positive_classes))
    cells = _cells(records, positive)  # every figure below scores these codes
    p, r, f1 = micro_f1(records, positive, cells=cells)
    tables = per_class_and_category(records, class_to_category, positive, cells=cells)
    report = {
        "micro": {"precision": p, "recall": r, "f1": f1, "support": len(records)},
        "classes": tables["classes"],
        "categories": tables["categories"],
        "distance_curve": [
            {"distance": d, "f1": f}
            for d, f in distance_curve(records, positive, cells=cells)
        ],
    }
    if with_ci:
        sets = [positive] + [[c] for c in report["classes"]]
        cis = bootstrap_ci(records, sets, b=b, seed=seed, cells=cells)
        for row, ci in zip([report["micro"], *report["classes"].values()], cis):
            row["f1_ci"] = ci
    return report


def format_report(report: dict) -> str:
    """Human-readable table; numbers in percent with one decimal."""
    lines = []

    def row(name: str, cells: dict) -> str:
        base = f"{name:<12} P={cells['precision']:5.1f}  R={cells['recall']:5.1f}  F1={cells['f1']:5.1f}  n={cells['support']}"
        if "f1_ci" in cells:
            lo, hi = cells["f1_ci"]
            base += f"  F1 {CI_LEVEL:.0%} CI [{lo:.1f}, {hi:.1f}]"
        return base

    lines.append("== per-class ==")
    for cls, cells in report["classes"].items():
        lines.append(row(cls, cells))
    lines.append("== per-category ==")
    for cat, cells in report["categories"].items():
        lines.append(row(cat, cells))
    lines.append("== micro (positive classes) ==")
    lines.append(row("micro", report["micro"]))
    if report.get("distance_curve"):
        lines.append("== distance curve ==")
        for pt in report["distance_curve"]:
            lines.append(f"d={pt['distance']:<4d} F1={pt['f1']:5.1f}")
    return "\n".join(lines) + "\n"
