"""Prediction and evaluation harnesses, including k-fold cross-validation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .metrics import EvalReport, UndefinedMetricError, accuracy_suite, f1_suite, roc_auc
from .tensor import sigmoid_values
from .training import TrainConfig, kfold_split, train


PREDICT_CHUNK = 32  # samples per batched forward; bounds the activations held at once


def predict_scores(model, samples):
    """Sigmoid class scores [n,C] plus importance records (max/min pools).

    Samples go through ``model.forward_batch`` in order, PREDICT_CHUNK at a
    time.
    """
    scores = np.zeros((len(samples), model.num_classes))
    records = []
    for start in range(0, len(samples), PREDICT_CHUNK):
        chunk = samples[start:start + PREDICT_CHUNK]
        logits, chunk_records = model.forward_batch(chunk)
        scores[start:start + len(chunk)] = sigmoid_values(logits.data)
        records.extend(r for r in chunk_records if r is not None)
    return scores, records


def decide(scores: np.ndarray, task: str) -> np.ndarray:
    """Decision rule: argmax for single-label, 0.5 threshold for multi-label."""
    if task == "single_label":
        return np.argmax(scores, axis=1)
    return (scores >= 0.5).astype(np.int64)


def _fold_metrics(scores, samples, task: str, num_classes: int) -> dict:
    labels = np.stack([s.labels for s in samples])
    out = {"n_eval": len(samples), "overall_accuracy": None, "per_class_accuracy": None,
           "roc_auc": None, "f1_micro": None, "f1_macro": None, "f1_samples": None}
    if task == "single_label":
        pred = decide(scores, task)
        true = np.argmax(labels, axis=1)
        overall, per_class = accuracy_suite(pred, true, num_classes)
        out["overall_accuracy"] = overall
        out["per_class_accuracy"] = [float(v) for v in per_class]
        pred_onehot = np.eye(num_classes, dtype=np.int64)[pred]
        micro, macro, samp = f1_suite(pred_onehot, labels)
        if num_classes == 2:
            try:
                out["roc_auc"] = roc_auc(scores[:, 1], labels[:, 1])
            except UndefinedMetricError:
                pass  # single-class fold, leave undefined
    else:
        micro, macro, samp = f1_suite(decide(scores, task), labels)
    out["f1_micro"] = micro
    out["f1_macro"] = macro
    out["f1_samples"] = samp
    return out


def evaluate_model(model, samples, task: str):
    """Metrics plus importance records for one model over one sample list."""
    scores, records = predict_scores(model, samples)
    return _fold_metrics(scores, samples, task, model.num_classes), records, scores


def _mean_folds(folds: list[dict]) -> dict:
    mean = {}
    skip = {"fold", "n_eval", "per_class_accuracy"}
    for key in folds[0]:
        if key in skip:
            continue
        values = [f[key] for f in folds if f.get(key) is not None]
        mean[key] = float(np.mean(values)) if values else None
    per_class = [f["per_class_accuracy"] for f in folds
                 if f.get("per_class_accuracy") is not None]
    mean["per_class_accuracy"] = (
        [float(v) for v in np.mean(per_class, axis=0)] if per_class else None)
    return mean


def _group_accuracy(scores, samples, task: str) -> dict | None:
    groups = sorted({s.group for s in samples if s.group is not None})
    if not groups or task != "single_label":
        return None
    pred = decide(scores, task)
    true = np.argmax(np.stack([s.labels for s in samples]), axis=1)
    out = {}
    for g in groups:
        mask = np.array([s.group == g for s in samples])
        out[g] = float(np.mean(pred[mask] == true[mask]))
    return out


def run_kfold(samples, task: str, model_factory, train_config: TrainConfig, k: int = 5,
              seed: int = 0) -> tuple[EvalReport, list]:
    """Train and evaluate one model per fold; report per-fold and mean metrics.

    ``model_factory(fold_index)`` must return a fresh model. Importance
    records are gathered from each fold's held-out samples, so every sample
    appears exactly once. Returns the report, its ``fim`` unset, plus the
    flat list of per-sample importance records for the caller to aggregate.
    """
    splits = kfold_split(len(samples), k=k, seed=seed)
    folds = []
    all_records = []
    pooled_scores = None
    for fold_index, (train_idx, eval_idx) in enumerate(splits):
        model = model_factory(fold_index)
        if pooled_scores is None:
            pooled_scores = np.zeros((len(samples), model.num_classes))
        fold_config = replace(train_config, seed=train_config.seed + fold_index)
        train(model, [samples[i] for i in train_idx], fold_config, task=task)
        eval_samples = [samples[i] for i in eval_idx]
        metrics, records, scores = evaluate_model(model, eval_samples, task)
        metrics["fold"] = fold_index
        folds.append(metrics)
        all_records.extend(records)
        pooled_scores[eval_idx] = scores
    return EvalReport(task=task, num_folds=k, folds=folds, mean=_mean_folds(folds),
                      per_group_accuracy=_group_accuracy(pooled_scores, samples, task)), all_records
