import csv
import json

import numpy as np
import pytest

from mmsets.metrics import (EvalReport, UndefinedMetricError, accuracy_suite,
                            export_fim, f1_suite, roc_auc)


# --- independent brute-force oracles ---------------------------------------

def auc_pairwise_oracle(scores, labels):
    """O(n^2): fraction of (pos, neg) pairs won by the positive, ties 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def f1_counts_oracle(pred, true):
    n, C = pred.shape

    def f1(tp, fp, fn, empty):
        d = 2 * tp + fp + fn
        return empty if d == 0 else 2 * tp / d

    tp = fp = fn = 0
    for r in range(n):
        for c in range(C):
            tp += int(pred[r, c] == 1 and true[r, c] == 1)
            fp += int(pred[r, c] == 1 and true[r, c] == 0)
            fn += int(pred[r, c] == 0 and true[r, c] == 1)
    micro = f1(tp, fp, fn, empty=1.0)
    per_class = []
    for c in range(C):
        tpc = sum(int(pred[r, c] == 1 and true[r, c] == 1) for r in range(n))
        fpc = sum(int(pred[r, c] == 1 and true[r, c] == 0) for r in range(n))
        fnc = sum(int(pred[r, c] == 0 and true[r, c] == 1) for r in range(n))
        per_class.append(f1(tpc, fpc, fnc, empty=0.0))
    per_row = []
    for r in range(n):
        tpr = sum(int(pred[r, c] == 1 and true[r, c] == 1) for c in range(C))
        fpr = sum(int(pred[r, c] == 1 and true[r, c] == 0) for c in range(C))
        fnr = sum(int(pred[r, c] == 0 and true[r, c] == 1) for c in range(C))
        per_row.append(f1(tpr, fpr, fnr, empty=1.0))
    return micro, sum(per_class) / C, sum(per_row) / n


def accuracy_counting_oracle(pred, true, C):
    overall = sum(int(p == t) for p, t in zip(pred, true)) / len(pred)
    per_class = []
    for c in range(C):
        members = [(p, t) for p, t in zip(pred, true) if t == c]
        per_class.append(
            sum(int(p == c) for p, _ in members) / len(members) if members else 0.0)
    return overall, per_class


# --- roc_auc ----------------------------------------------------------------

class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_example_against_pairwise(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert roc_auc(scores, labels) == pytest.approx(0.75, abs=1e-15)
        assert auc_pairwise_oracle(scores, labels) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("scores,labels,match", [
        ([0.1, 0.9], [1, 0, 1], "matching vectors"),
        ([[0.1, 0.9]], [[1, 0]], "matching vectors"),
        ([0.1, 0.9], [2, 0], "binary"),
    ], ids=["lengths-differ", "not-vectors", "label-2"])
    def test_malformed_inputs_rejected(self, scores, labels, match):
        with pytest.raises(ValueError, match=match):
            roc_auc(scores, labels)

    def test_matches_pairwise_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            assert roc_auc(scores, labels) == pytest.approx(
                auc_pairwise_oracle(scores, labels), abs=1e-12)

    def test_nan_scores_rank_last_in_input_order(self):
        # every NaN is a tie run of its own after all numbers, the earlier NaN
        # ranking lower: the positives at even places win exactly half the pairs
        scores = [np.nan] * 40 + [0.0]
        labels = [1, 0] * 20 + [0]
        assert roc_auc(scores, labels) == 0.5

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            scores = rng.permutation(n) / n  # distinct scores
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            total = roc_auc(scores, labels) + roc_auc(-scores, labels)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        for transform in (np.exp, np.tanh, lambda s: 3 * s + 7, np.cbrt):
            assert roc_auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


# --- f1 ---------------------------------------------------------------------

class TestF1Suite:
    def test_identity_is_all_ones(self):
        rng = np.random.default_rng(3)
        m = (rng.random((6, 4)) < 0.5).astype(int)
        m[0, 0] = 1  # make sure something is positive
        micro, macro, samples = f1_suite(m, m)
        assert micro == 1.0
        # classes/rows empty on both sides keep their conventions
        if m.sum(axis=0).min() > 0:
            assert macro == 1.0
        if m.sum(axis=1).min() > 0:
            assert samples == 1.0

    def test_micro_example(self):
        pred = np.array([[1, 1], [0, 1]])
        true = np.array([[1, 0], [0, 1]])
        micro, macro, samples = f1_suite(pred, true)
        assert micro == pytest.approx(0.8, abs=1e-15)
        # frozen from the per-class oracle: class0 F1=1.0, class1 F1=2/3
        assert macro == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)
        oracle = f1_counts_oracle(pred, true)
        assert (micro, macro, samples) == pytest.approx(oracle, abs=1e-15)

    def test_empty_class_convention(self):
        pred = np.array([[1, 0], [1, 0]])
        true = np.array([[1, 0], [1, 0]])
        _, macro, _ = f1_suite(pred, true)
        assert macro == 0.5  # class 1 empty in both -> 0

    def test_empty_row_convention(self):
        pred = np.array([[0, 0], [1, 1]])
        true = np.array([[0, 0], [1, 1]])
        _, _, samples = f1_suite(pred, true)
        assert samples == 1.0  # empty-and-empty row counts as 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            f1_suite(np.zeros((2, 3), dtype=int), np.zeros((2, 2), dtype=int))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            f1_suite(np.array([[0, 2]]), np.array([[0, 1]]))
        with pytest.raises(ValueError, match="binary"):
            f1_suite(np.array([[0, 1]]), np.array([[0.5, 1]]))

    def test_matches_counting_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            C = int(rng.integers(1, 9))
            pred = (rng.random((n, C)) < 0.4).astype(int)
            true = (rng.random((n, C)) < 0.4).astype(int)
            assert f1_suite(pred, true) == pytest.approx(
                f1_counts_oracle(pred, true), abs=1e-12)


# --- accuracy ---------------------------------------------------------------

class TestAccuracy:
    def test_identity(self):
        overall, per_class = accuracy_suite([0, 1, 2], [0, 1, 2], 3)
        assert overall == 1.0
        assert per_class.tolist() == [1.0, 1.0, 1.0]

    def test_constant_predictor_on_balanced_binary(self):
        pred = [1] * 10
        true = [0, 1] * 5
        overall, per_class = accuracy_suite(pred, true, 2)
        assert overall == 0.5
        assert per_class.tolist() == [0.0, 1.0]

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            accuracy_suite([0, 3], [0, 1], 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching vectors"):
            accuracy_suite([0, 1], [0, 1, 1], 2)
        with pytest.raises(ValueError, match="matching vectors"):
            accuracy_suite([[0, 1]], [[0, 1]], 2)

    def test_matches_counting_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            C = int(rng.integers(2, 9))
            pred = rng.integers(0, C, size=n)
            true = rng.integers(0, C, size=n)
            overall, per_class = accuracy_suite(pred, true, C)
            o_overall, o_per_class = accuracy_counting_oracle(pred, true, C)
            assert overall == pytest.approx(o_overall, abs=1e-12)
            assert per_class.tolist() == pytest.approx(o_per_class, abs=1e-12)


# --- FIM export ---------------------------------------------------------------

class TestExportFim:
    def test_single_cell(self, tmp_path):
        path = tmp_path / "fim.csv"
        export_fim([("max_D32", {"img": 1.0})], path)
        lines = path.read_text().splitlines()
        assert lines == ["model,img", "max_D32,1.0"]

    def test_union_columns_with_zero_fill(self, tmp_path):
        path = tmp_path / "fim.csv"
        export_fim([("a", {"img": 1.0}), ("b", {"txt": 0.25, "img": 0.75})], path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["model", "img", "txt"]
        assert rows[1] == ["a", "1.0", "0.0"]  # absent modality is exactly zero
        assert float(rows[2][2]) == 0.25

    def test_csv_reparsed_equals_json_twin(self, tmp_path):
        path = tmp_path / "fim.csv"
        fractions = {"img": 1 / 3, "txt": 1 / 3, "face": 1 / 3}
        export_fim([("m1", fractions), ("m2", {"img": 0.5, "ocr": 0.5})], path)
        twin = json.loads(path.with_suffix(".json").read_text())
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0][1:] == twin["modalities"]
        for row, tag, values in zip(rows[1:], twin["models"], twin["matrix"]):
            assert row[0] == tag
            assert [float(v) for v in row[1:]] == values

    def test_any_id_reparses_from_the_csv(self, tmp_path):
        path = tmp_path / "fim.csv"
        export_fim([("max,D8", {"a,b": 0.5, 'q"x': 0.25, "two\nlines": 0.25}),
                    ("plain", {"a,b": 1.0})], path)
        twin = json.loads(path.with_suffix(".json").read_text())
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["model", *twin["modalities"]]
        assert [row[0] for row in rows] == twin["models"]
        assert [[float(v) for v in row[1:]] for row in rows] == twin["matrix"]

    def test_bad_sum_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sum"):
            export_fim([("m", {"img": 0.6})], tmp_path / "fim.csv")

    def test_no_aggregate_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one aggregate"):
            export_fim([], tmp_path / "fim.csv")
        assert not (tmp_path / "fim.csv").exists()

    def test_byte_deterministic(self, tmp_path):
        agg = [("m1", {"a": 0.25, "b": 0.75}), ("m2", {"c": 1.0})]
        export_fim(agg, tmp_path / "x.csv")
        export_fim(agg, tmp_path / "y.csv")
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()


def test_eval_report_serializes(tmp_path):
    report = EvalReport(task="single_label", num_folds=2,
                        folds=[{"fold": 0, "overall_accuracy": 0.9},
                               {"fold": 1, "overall_accuracy": 1.0}],
                        mean={"overall_accuracy": 0.95}, fim={"img": 1.0})
    decoded = json.loads(report.to_json())
    assert decoded["mean"]["overall_accuracy"] == 0.95
    assert len(decoded["folds"]) == 2
