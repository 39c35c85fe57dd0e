import json

import numpy as np
import pytest

from cbgru import cli, evaluation
from cbgru.data import ConfigError, InputError, make_rng
from cbgru.evaluation import (
    PredictionRecord,
    bootstrap_ci,
    distance_curve,
    micro_f1,
    per_class_and_category,
)


def rec(gold, pred, distance=1, sample_id="s"):
    return PredictionRecord(sample_id=sample_id, gold=gold, pred=pred, distance=distance)


def brute_force_micro(records, positive):
    """Independent oracle: build the full confusion matrix, then pool."""
    matrix = {}
    for r in records:
        matrix[(r.gold, r.pred)] = matrix.get((r.gold, r.pred), 0) + 1
    tp = sum(n for (g, p), n in matrix.items() if g == p and p in positive)
    fp = sum(n for (g, p), n in matrix.items() if p in positive and g != p)
    fn = sum(n for (g, p), n in matrix.items() if g in positive and g != p)
    return brute_force_prf(tp, fp, fn)


def brute_force_prf(tp, fp, fn):
    p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


class TestMicroF1:
    def test_all_correct(self):
        records = [rec("A", "A"), rec("B", "B")]
        assert micro_f1(records, {"A", "B"}) == (100.0, 100.0, 100.0)

    def test_hand_tally(self):
        records = [rec("A", "A"), rec("A", "Neg"), rec("Neg", "A")]
        p, r, f1 = micro_f1(records, {"A"})
        assert (p, r, f1) == (50.0, 50.0, 50.0)

    def test_all_predicted_negative(self):
        records = [rec("A", "Neg"), rec("Neg", "Neg")]
        assert micro_f1(records, {"A"}) == (0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            micro_f1([], {"A"})

    def test_matches_brute_force_on_random_sets(self):
        rng = make_rng(0)
        classes = ["A", "B", "C", "NegX", "NegY"]
        positive = {"A", "B", "C"}
        for _ in range(200):
            n = int(rng.integers(1, 60))
            records = [
                rec(classes[rng.integers(0, 5)], classes[rng.integers(0, 5)])
                for _ in range(n)
            ]
            assert micro_f1(records, positive) == pytest.approx(
                brute_force_micro(records, positive), abs=1e-12
            )

    def test_order_invariant(self):
        rng = make_rng(1)
        records = [rec("A" if rng.random() < 0.5 else "B", "A") for _ in range(30)]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert micro_f1(records, {"A"}) == micro_f1(shuffled, {"A"})

    def test_single_positive_class_equals_ovr(self):
        rng = make_rng(2)
        records = [
            rec("A" if rng.random() < 0.4 else "N", "A" if rng.random() < 0.5 else "N")
            for _ in range(50)
        ]
        micro = micro_f1(records, {"A"})
        table = per_class_and_category(records, {"A": "cat"}, ["A"])
        row = table["classes"]["A"]
        assert micro == (row["precision"], row["recall"], row["f1"])


class TestPerClassAndCategory:
    def test_perfect_single_class(self):
        records = [rec("A", "A")] * 3
        table = per_class_and_category(records, {"A": "cat"}, ["A"])
        row = table["classes"]["A"]
        assert (row["precision"], row["recall"], row["f1"], row["support"]) == (100.0, 100.0, 100.0, 3)

    def test_absent_class_zeroes(self):
        records = [rec("B", "B")]
        table = per_class_and_category(records, {"A": "c1", "B": "c1"}, ["A", "B"])
        row = table["classes"]["A"]
        assert (row["precision"], row["recall"], row["f1"], row["support"]) == (0.0, 0.0, 0.0, 0)

    def test_category_micro_matches_pooled_tally(self):
        rng = make_rng(3)
        classes = ["A", "B", "C", "N"]
        records = [
            rec(classes[rng.integers(0, 4)], classes[rng.integers(0, 4)])
            for _ in range(200)
        ]
        mapping = {"A": "cat1", "B": "cat1", "C": "cat2", "N": "cat1"}
        table = per_class_and_category(records, mapping, ["A", "B", "C"])
        cat1 = table["categories"]["cat1"]
        expected = brute_force_micro(records, {"A", "B"})
        assert (cat1["precision"], cat1["recall"], cat1["f1"]) == pytest.approx(expected, abs=1e-12)

    def test_unmapped_class_rejected(self):
        with pytest.raises(ConfigError):
            per_class_and_category([rec("A", "A")], {}, ["A"])

    def test_empty_positive_set_rejected(self):
        with pytest.raises(InputError):
            per_class_and_category([rec("A", "A")], {"A": "cat"}, [])


class TestBootstrap:
    def test_all_correct_degenerate(self):
        records = [rec("A", "A") for _ in range(30)]
        assert bootstrap_ci(records, [{"A"}], b=1000, seed=0) == [(100.0, 100.0)]

    def test_constant_metric_zero_width(self):
        # "A" is never predicted, so every resample scores F1 0
        records = [rec("A", "B"), rec("N", "B")]
        assert bootstrap_ci(records, [{"A"}], b=200, seed=1) == [(0.0, 0.0)]

    def test_deterministic_for_seed(self):
        rng = make_rng(4)
        records = [rec("A", "A" if rng.random() < 0.7 else "N") for _ in range(50)]
        sets = [{"A"}, {"A", "N"}]
        assert bootstrap_ci(records, sets, b=200, seed=9) == bootstrap_ci(records, sets, b=200, seed=9)

    def test_small_b_rejected(self):
        with pytest.raises(InputError):
            bootstrap_ci([rec("A", "A")], [{"A"}], b=10)

    def test_width_shrinks_with_sample_size(self):
        def bernoulli_records(n, seed):
            rng = make_rng(seed)
            return [rec("A", "A" if rng.random() < 0.7 else "B") for _ in range(n)]

        # gold is always A and a miss predicts B, so micro-F1 over {A, B} is the accuracy
        [(lo1, hi1)] = bootstrap_ci(bernoulli_records(250, 0), [{"A", "B"}], b=500, seed=3)
        [(lo2, hi2)] = bootstrap_ci(bernoulli_records(1000, 1), [{"A", "B"}], b=500, seed=3)
        ratio = (hi1 - lo1) / (hi2 - lo2)
        assert 1.4 < ratio < 2.6


class TestDistanceCurve:
    def test_single_distance_cluster(self):
        records = [rec("A", "A", distance=5) for _ in range(25)]
        points = distance_curve(records, {"A"})
        # truncated at d=5; window [d-2, d+2] covers the cluster from d=3 on
        assert points[-1][0] == 5
        assert all(f1 == 100.0 for _, f1 in points)

    def test_truncation_by_exact_count(self):
        records = [rec("A", "A", distance=5) for _ in range(25)]
        records += [rec("A", "A", distance=40) for _ in range(3)]
        points = distance_curve(records, {"A"})
        assert max(d for d, _ in points) == 5

    def test_points_match_filtered_micro(self):
        rng = make_rng(5)
        records = [
            rec("A" if rng.random() < 0.6 else "N", "A" if rng.random() < 0.5 else "N",
                distance=int(rng.integers(1, 12)))
            for _ in range(400)
        ]
        for d, f1 in distance_curve(records, {"A"}, window=2, min_support=20):
            subset = [r for r in records if d - 2 <= r.distance <= d + 2]
            assert f1 == micro_f1(subset, {"A"})[2]

    def test_no_support_warns_and_returns_empty(self):
        records = [rec("A", "A", distance=3)]
        with pytest.warns(UserWarning):
            assert distance_curve(records, {"A"}) == []


class TestReportIO:
    def test_predictions_tsv_text(self, tmp_path):
        records = [rec("A", "B", distance=4, sample_id="s1"), rec("B", "B", distance=2, sample_id="s2")]
        cli._write(str(tmp_path), "preds.tsv", cli._predictions_tsv(records))
        assert (tmp_path / "preds.tsv").read_bytes() == b"sample_id\tgold\tpred\tdistance\ns1\tA\tB\t4\ns2\tB\tB\t2\n"

    def test_report_build_and_format(self):
        records = [rec("A", "A", distance=3) for _ in range(30)]
        report = evaluation.build_report(records, {"A": "cat"}, ["A"], with_ci=True, b=100)
        assert report["micro"]["f1"] == 100.0
        assert report["micro"]["f1_ci"] == (100.0, 100.0)
        text = evaluation.format_report(report)
        assert "micro" in text and "100.0" in text
        assert "  F1 95% CI [100.0, 100.0]\n" in text

    def test_ci_label_follows_the_level(self, monkeypatch):
        records = [rec("A", "A", distance=3) for _ in range(20)] + [rec("A", "B", distance=3) for _ in range(10)]
        monkeypatch.setattr(evaluation, "CI_LEVEL", 0.5)
        at50 = evaluation.build_report(records, {"A": "cat"}, ["A"], with_ci=True, b=200)
        text = evaluation.format_report(at50)
        assert "F1 50% CI" in text and "95%" not in text
        monkeypatch.setattr(evaluation, "CI_LEVEL", 0.95)
        at95 = evaluation.build_report(records, {"A": "cat"}, ["A"], with_ci=True, b=200)
        (lo50, hi50), (lo95, hi95) = at50["micro"]["f1_ci"], at95["micro"]["f1_ci"]
        assert lo95 < lo50 <= hi50 < hi95

    def test_report_json_written(self):
        records = [rec("A", "A", distance=1)] * 25
        report = evaluation.build_report(records, {"A": "cat"}, ["A"])
        loaded = json.loads(cli._json(report))
        assert loaded["micro"]["f1"] == 100.0


def oracle_report(records, class_to_category, positive, b, level, seed, window, min_support):
    """build_report by brute force: every figure from a per-record tally.
    Each bootstrap replicate draws the records' nonempty confusion cells,
    in cell order, from one make_rng(seed) multinomial; a cell is a (gold,
    pred) pair with every label outside ``positive`` read as one. The drawn
    counts are expanded into records, any record of a cell standing for
    it, and tallied record by record."""

    def tally(recs):
        counts = {c: [0, 0, 0] for c in positive}  # tp, fp, fn
        for r in recs:
            if r.gold == r.pred and r.gold in counts:
                counts[r.gold][0] += 1
            elif r.gold != r.pred:
                if r.pred in counts:
                    counts[r.pred][1] += 1
                if r.gold in counts:
                    counts[r.gold][2] += 1
        return counts

    def row(counts, members):
        p, r, f = brute_force_prf(*(sum(counts[c][j] for c in members) for j in range(3)))
        return {"precision": p, "recall": r, "f1": f}

    counts = tally(records)
    report = {
        "micro": {**row(counts, positive), "support": len(records)},
        "classes": {c: {**row(counts, [c]), "support": sum(r.gold == c for r in records)} for c in positive},
        "categories": {},
        "distance_curve": [],
    }
    for cat in sorted({class_to_category[c] for c in positive}):
        members = [c for c in positive if class_to_category[c] == cat]
        support = sum(r.gold in members for r in records)
        report["categories"][cat] = {**row(counts, members), "support": support, "classes": members}
    at = {}
    for r in records:
        at[r.distance] = at.get(r.distance, 0) + 1
    for d in range(1, max(d for d, n in at.items() if n > min_support) + 1):
        subset = [r for r in records if d - window <= r.distance <= d + window]
        if subset:
            report["distance_curve"].append({"distance": d, "f1": row(tally(subset), positive)["f1"]})
    stats = {name: [] for name in ["micro"] + positive}
    code = {c: i for i, c in enumerate(positive)}
    by_cell = {}
    for r in records:
        by_cell.setdefault((code.get(r.gold, len(positive)), code.get(r.pred, len(positive))), []).append(r)
    cells = sorted(by_cell)
    rng = make_rng(seed)
    for _ in range(b):
        drawn = rng.multinomial(len(records), [len(by_cell[c]) / len(records) for c in cells])
        counts = tally([by_cell[c][0] for c, m in zip(cells, drawn) for _ in range(m)])
        stats["micro"].append(row(counts, positive)["f1"])
        for c in positive:
            stats[c].append(row(counts, [c])["f1"])
    ci = {
        name: (float(np.percentile(v, 100.0 * (1.0 - level) / 2.0)), float(np.percentile(v, 100.0 * (1.0 + level) / 2.0)))
        for name, v in stats.items()
    }
    report["micro"]["f1_ci"] = ci["micro"]
    for c in positive:
        report["classes"][c]["f1_ci"] = ci[c]
    return report


def oracle_records(seed):
    """Positive class E has no support and is never predicted, category c2
    has one member, predictions include labels outside the positive set, and
    distances have gaps, 0, and sparse values just inside and outside the
    last window."""
    rng = make_rng(seed)
    gold_labels = ["A", "B", "C", "D", "Other"]
    distances = [0] * 3 + [1] * 6 + [2] * 6 + [3] * 5 + [4] * 4 + [7] * 4 + [8] * 4 + [10, 11, 12]
    records = []
    for i in range(400):
        gold = gold_labels[rng.integers(0, 5)]
        pred = gold if rng.random() < 0.6 else ["A", "B", "C", "D", "Other", "Unknown"][rng.integers(0, 6)]
        records.append(rec(gold, pred, distance=distances[rng.integers(0, len(distances))], sample_id=f"s{i}"))
    return records


class TestReportParity:
    POSITIVE = ["A", "B", "C", "D", "E"]
    CATEGORIES = {"A": "c1", "B": "c1", "C": "c2", "D": "c3", "E": "c3"}

    @pytest.mark.parametrize("seed, window", [(0, 2), (1, 1), (2, 0)])
    def test_matches_record_by_record_oracle(self, seed, window):
        # build_report draws its curve at window 2; distance_curve is checked at each window
        records = oracle_records(seed)
        report = evaluation.build_report(records, self.CATEGORIES, self.POSITIVE, with_ci=True, b=100, seed=seed)
        expected = oracle_report(records, self.CATEGORIES, self.POSITIVE, 100, 0.95, seed, 2, 20)
        assert report == expected
        assert cli._json(report) == cli._json(expected)
        curve = evaluation.distance_curve(records, self.POSITIVE, window)
        oracle = oracle_report(records, self.CATEGORIES, self.POSITIVE, 100, 0.95, seed, window, 20)
        assert [{"distance": d, "f1": f} for d, f in curve] == oracle["distance_curve"]

    def _drawn_counts(self, monkeypatch):
        """Records every replicate's counts that bootstrap_ci scores."""
        drawn = []

        def recorded(counts, classes, groups):
            if counts.ndim == 2:
                drawn.append(counts.copy())
            return group_scores(counts, classes, groups)

        group_scores = evaluation._group_scores
        monkeypatch.setattr(evaluation, "_group_scores", recorded)
        return drawn

    def test_one_generator_and_full_size_draws(self, monkeypatch):
        seeds = []

        def counted_rng(seed):
            seeds.append(seed)
            return make_rng(seed)

        monkeypatch.setattr(evaluation, "make_rng", counted_rng)
        drawn = self._drawn_counts(monkeypatch)
        records = oracle_records(3)
        evaluation.build_report(records, self.CATEGORIES, self.POSITIVE, with_ci=True, b=150, seed=7)
        assert seeds == [7]
        drawn = np.concatenate(drawn)
        assert drawn.shape == (150, (len(self.POSITIVE) + 1) ** 2)
        assert (drawn.sum(axis=1) == len(records)).all()
        empty = np.bincount(evaluation._cells(records, self.POSITIVE), minlength=drawn.shape[1]) == 0
        assert empty.any() and not drawn[:, empty].any()

    def test_same_spread_as_record_level_bootstrap(self, monkeypatch):
        """Each cell's mean drawn count is its count in the records, and
        against a record-level bootstrap, which resamples n record indices
        per replicate, the per-cell standard deviations and the micro-F1
        interval endpoints agree."""
        b, records = 2000, oracle_records(6)
        drawn = self._drawn_counts(monkeypatch)
        [(lo, hi)] = bootstrap_ci(records, [self.POSITIVE], b=b, seed=11)
        drawn = np.concatenate(drawn)
        cells = evaluation._cells(records, self.POSITIVE)
        rng = make_rng(12)
        resampled = np.array([np.bincount(cells[rng.integers(0, cells.size, size=cells.size)],
                                          minlength=drawn.shape[1]) for _ in range(b)])
        counts = np.bincount(cells, minlength=drawn.shape[1])
        used = np.flatnonzero(counts)
        sd = drawn[:, used].std(axis=0)
        assert np.all(np.abs(drawn[:, used].mean(axis=0) - counts[used]) < 5 * sd / np.sqrt(b))
        ratio = sd / resampled[:, used].std(axis=0)
        assert 0.9 < ratio.min() and ratio.max() < 1.1
        f1 = evaluation._group_scores(resampled, self.POSITIVE, [self.POSITIVE])[2][:, 0]
        assert np.percentile(f1, [2.5, 97.5]) == pytest.approx([lo, hi], abs=1.5)

    def test_records_mapped_to_codes_once(self, monkeypatch):
        calls = []

        def counted_cells(records, classes):
            calls.append(list(classes))
            return cells(records, classes)

        cells = evaluation._cells
        monkeypatch.setattr(evaluation, "_cells", counted_cells)
        evaluation.build_report(oracle_records(5), self.CATEGORIES, self.POSITIVE, with_ci=True, b=100)
        assert calls == [self.POSITIVE]

    @pytest.mark.parametrize("b", [1000.5, True, 99, "1000"])
    def test_ci_arguments_validated(self, b):
        with pytest.raises(InputError):
            evaluation.build_report(oracle_records(4), self.CATEGORIES, self.POSITIVE, with_ci=True, b=b)
