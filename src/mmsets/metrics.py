"""Evaluation metrics and feature-importance matrix export.

All metrics are implemented directly (tied-rank Mann-Whitney AUC, confusion
counting for F1 and accuracy) so the test suite can check them against
independent brute-force oracles.
"""

from __future__ import annotations

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
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average rank over the tie run
        i = j + 1
    rank_sum = ranks[y == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def decide(scores: np.ndarray, task: str) -> np.ndarray:
    """Decision rule: argmax for single-label, 0.5 threshold for multi-label."""
    if task == "single_label":
        return np.argmax(scores, axis=1)
    return (scores >= 0.5).astype(np.int64)


def _f1_from_counts(tp: int, fp: int, fn: int, when_empty: float) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return when_empty
    return 2.0 * tp / denom


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
    micro = _f1_from_counts(int(tp.sum()), int(fp.sum()), int(fn.sum()), when_empty=1.0)
    per_class = [
        _f1_from_counts(int(tp[:, c].sum()), int(fp[:, c].sum()), int(fn[:, c].sum()),
                        when_empty=0.0)
        for c in range(p.shape[1])
    ]
    per_row = [
        _f1_from_counts(int(tp[r].sum()), int(fp[r].sum()), int(fn[r].sum()),
                        when_empty=1.0)
        for r in range(p.shape[0])
    ]
    return micro, float(np.mean(per_class)), float(np.mean(per_row))


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
    per_class = np.zeros(num_classes)
    for c in range(num_classes):
        mask = t == c
        if mask.any():
            per_class[c] = float(np.mean(p[mask] == c))
    return overall, per_class


def export_fim(aggregates, path) -> None:
    """Write a feature importance matrix as CSV plus a JSON twin.

    ``aggregates`` is a list of (model_tag, {modality_id: fraction}); each
    fraction map must sum to 1 within 1e-9. Rows keep input order, columns
    are the sorted union of modality ids, absent pairs are written as 0.0.
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
    lines = ["model," + ",".join(columns)]
    for tag, row in zip(models, matrix):
        lines.append(tag + "," + ",".join(repr(v) for v in row))
    csv_path.write_text("\n".join(lines) + "\n")

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

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
