"""Evaluation metrics and feature-importance matrix export.

All metrics are implemented directly (tied-rank Mann-Whitney AUC, confusion
counting for F1 and accuracy) so the test suite can check them against
independent brute-force oracles.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import MMSetsError


class UndefinedMetricError(MMSetsError):
    """The metric is undefined for this input (e.g. single-class AUC)."""


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve, Mann-Whitney formulation.

    Equals the fraction of (positive, negative) pairs whose positive scores
    higher, counting ties as one half. Requires both classes present.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores/labels must be matching vectors, got {s.shape}, {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary 0/1")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    # one rank per distinct score, the average over its tie run. Each NaN is a
    # run of its own; return_index makes the sort stable, so the NaNs rank
    # last in input order
    _, _, run_of, run_len = np.unique(s, return_index=True, return_inverse=True,
                                      return_counts=True, equal_nan=False)
    ranks = np.cumsum(run_len) - 0.5 * (run_len - 1)
    rank_sum = ranks[run_of][y == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def decide(scores: np.ndarray, task: str) -> np.ndarray:
    """Decision rule: argmax for single-label, 0.5 threshold for multi-label."""
    if task == "single_label":
        return np.argmax(scores, axis=1)
    return (scores >= 0.5).astype(np.int64)


def _f1(tp, fp, fn, when_empty: float) -> np.ndarray:
    """F1 of each entry of the count arrays; ``when_empty`` where all are 0."""
    denom = 2 * tp + fp + fn
    return np.where(denom == 0, when_empty, 2.0 * tp / np.maximum(denom, 1))


def f1_suite(pred, true) -> tuple[float, float, float]:
    """(micro, macro, samples) F1 over binary [n,C] matrices.

    Conventions for degenerate slices: a class empty in both pred and true
    scores 0 toward the macro mean, while a sample row empty in both scores
    1 toward the samples mean. Micro with no positives anywhere is 1.
    """
    p = np.asarray(pred)
    t = np.asarray(true)
    if p.shape != t.shape or p.ndim != 2:
        raise ValueError(f"pred/true must be matching [n,C] matrices, got {p.shape}, {t.shape}")
    if not (np.all((p == 0) | (p == 1)) and np.all((t == 0) | (t == 1))):
        raise ValueError("pred/true must be binary 0/1")
    tp = (p == 1) & (t == 1)
    fp = (p == 1) & (t == 0)
    fn = (p == 0) & (t == 1)
    micro = _f1(tp.sum(), fp.sum(), fn.sum(), when_empty=1.0)
    per_class = _f1(tp.sum(axis=0), fp.sum(axis=0), fn.sum(axis=0), when_empty=0.0)
    per_row = _f1(tp.sum(axis=1), fp.sum(axis=1), fn.sum(axis=1), when_empty=1.0)
    return float(micro), float(np.mean(per_class)), float(np.mean(per_row))


def accuracy_suite(pred_class, true_class, num_classes: int) -> tuple[float, np.ndarray]:
    """Overall accuracy plus per-class accuracy restricted to each true class.

    Classes with no samples score 0.0 in the per-class vector.
    """
    p = np.asarray(pred_class)
    t = np.asarray(true_class)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"pred/true must be matching vectors, got {p.shape}, {t.shape}")
    for name, arr in (("pred", p), ("true", t)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} class index outside [0, {num_classes})")
    overall = float(np.mean(p == t)) if p.size else 0.0
    t = t.astype(np.intp)
    total = np.bincount(t, minlength=num_classes)
    hits = np.bincount(t[p == t], minlength=num_classes)
    return overall, np.where(total == 0, 0.0, hits / np.maximum(total, 1))


def export_fim(aggregates, path) -> None:
    """Write a feature importance matrix as CSV plus a JSON twin.

    ``aggregates`` is a list of (model_tag, {modality_id: fraction}); each
    fraction map must sum to 1 within 1e-9. Rows keep input order, columns
    are the sorted union of modality ids, absent pairs are written as 0.0.
    The CSV quotes only the cells that need it, so any id re-parses intact.
    Output bytes are deterministic for a given input.
    """
    if not aggregates:
        raise ValueError("export_fim needs at least one aggregate")
    for tag, fractions in aggregates:
        total = sum(fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions for {tag!r} sum to {total}, expected 1")
    columns = sorted(set().union(*(set(f) for _, f in aggregates)))
    models = [tag for tag, _ in aggregates]
    matrix = [[float(fractions.get(c, 0.0)) for c in columns]
              for _, fractions in aggregates]

    csv_path = Path(path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", *columns])
        writer.writerows([tag, *map(repr, row)] for tag, row in zip(models, matrix))

    twin = {"modalities": columns, "models": models, "matrix": matrix}
    csv_path.with_suffix(".json").write_text(
        json.dumps(twin, sort_keys=True, indent=2) + "\n")


@dataclass
class EvalReport:
    """Per-fold metrics, their mean, and the aggregated importance matrix."""

    task: str
    num_folds: int
    folds: list[dict]
    mean: dict
    fim: dict | None = None
    per_group_accuracy: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"
