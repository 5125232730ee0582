"""Optimizer, learning-rate schedule, loss, and the epoch loop.

The recipe: AdamW with decoupled weight decay, learning rate warmed up
linearly to the peak and then cosine-annealed, sigmoid cross-entropy with
optional inverse-sqrt-frequency class weights, and a classifier bias seeded
from a class prior. Each minibatch is one forward pass over all its sets,
one loss row per sample, one backward pass and one optimizer step; every
sample still draws its subsampling and dropout from its own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .errors import DataError, NumericError, check_int, check_real
from .seeding import derive_rng, sample_rng

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW's fixed moment decay rates and denominator floor

@dataclass
class TrainConfig:
    """Optimizer, schedule and loop settings; the one place their defaults
    live. A value of the wrong type or out of range raises ValueError."""

    epochs: int = 25
    batch_size: int = 32
    peak_lr: float = 0.001
    warmup_epochs: int = 5
    min_lr: float = 0.0
    weight_decay: float = 0.01
    class_weighting: bool = False
    seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs)
        check_int("batch_size", self.batch_size)
        check_int("warmup_epochs", self.warmup_epochs, 0)
        if self.warmup_epochs >= self.epochs:
            raise ValueError(
                f"warmup_epochs must lie in [0, epochs): {self.warmup_epochs} vs {self.epochs}"
            )
        check_real("min_lr", self.min_lr, 0.0)
        check_real("peak_lr", self.peak_lr, self.min_lr, open_low=True)
        check_real("weight_decay", self.weight_decay, 0.0)
        check_int("seed", self.seed, 0)
        if not isinstance(self.class_weighting, bool):
            raise ValueError(f"class_weighting must be a bool, got {self.class_weighting!r}")


def lr_at(config: TrainConfig, progress: float) -> float:
    """Learning rate at fractional epoch ``progress`` in [0, epochs]: linear
    warmup to ``peak_lr``, then cosine decay to ``min_lr``."""
    c = config
    if not 0.0 <= progress <= c.epochs:
        raise ValueError(f"progress {progress} outside [0, {c.epochs}]")
    if progress < c.warmup_epochs:
        return c.peak_lr * progress / c.warmup_epochs
    frac = (progress - c.warmup_epochs) / (c.epochs - c.warmup_epochs)
    return c.min_lr + 0.5 * (c.peak_lr - c.min_lr) * (1.0 + math.cos(math.pi * frac))


class AdamWState:
    """Per-parameter moment buffers plus the shared step counter."""

    def __init__(self, params: dict[str, T.Tensor],
                 weight_decay: float = TrainConfig.weight_decay):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0
        self.weight_decay = weight_decay


def adamw_step(params: dict[str, T.Tensor], grads: dict[str, Optional[np.ndarray]],
               state: AdamWState, lr: float) -> None:
    """One AdamW update: bias-corrected Adam step, then theta *= 1 - lr*wd.

    The decay is decoupled from the gradient term, so a zero-gradient step
    is a pure multiplicative shrink. A parameter with no gradient this step
    (grads entry None) still has its moments decayed and its decay applied.
    Every gradient is checked before anything is updated, so a non-finite
    one raises NumericError with the parameters, moments and step count
    untouched.
    """
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    for name in params:
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        v *= BETA2
        if g is not None:
            m += (1.0 - BETA1) * g
            v += (1.0 - BETA2) * np.square(g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        if state.weight_decay:
            p.data *= 1.0 - lr * state.weight_decay


def weighted_sigmoid_ce(logits: T.Tensor, targets: np.ndarray, weights: np.ndarray) -> T.Tensor:
    """Class-weighted sigmoid cross-entropy of each sample, averaged over classes.

    ``logits`` [B,C] and ``targets`` [B,C] (one row may be given as a [C]
    vector) give a [B,1] tensor of per-sample losses. Stable for logits of
    any magnitude; targets must be exactly 0/1.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"expected [B,C] logits, got shape {z.shape}")
    n_classes = z.shape[1]
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if t.size != z.size or w.shape[0] != n_classes:
        raise ValueError(f"targets need {n_classes} entries per row and weights {n_classes}")
    t = t.reshape(z.shape)
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("targets must be binary 0/1")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("class weights must be positive and finite")
    per_class = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = T.Tensor((w * per_class).sum(axis=1, keepdims=True) / n_classes)

    def backward_fn(g):
        T.accumulate_grad(logits, w * (T.sigmoid_values(z) - t) / n_classes * g)

    return T.register_op(out, (logits,), backward_fn)


def init_classifier_bias(num_classes: int, prior: float) -> np.ndarray:
    """[1,C] bias vector with every entry -log((1-prior)/prior)."""
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior must lie in (0, 1), got {prior}")
    return np.full((1, num_classes), -math.log((1.0 - prior) / prior))


def inverse_sqrt_class_weights(label_matrix: np.ndarray) -> np.ndarray:
    """Per-class weights 1/sqrt(freq), normalized to mean 1.

    Frequency is the per-class positive rate over the samples. Classes with
    no positives are counted as having one, which keeps every weight finite.
    """
    labels = np.asarray(label_matrix, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[0] == 0:
        raise ValueError("need a nonempty [n,C] label matrix")
    counts = np.maximum(labels.sum(axis=0), 1.0)
    w = 1.0 / np.sqrt(counts / labels.shape[0])
    return w / w.mean()


def _accuracy_terms(scores: np.ndarray, labels: np.ndarray, task: str) -> np.ndarray:
    """Per-sample accuracy of score rows against label rows."""
    if task == "single_label":
        return (np.argmax(scores, axis=1) == np.argmax(labels, axis=1)).astype(np.float64)
    return np.mean((scores >= 0.5) == (labels == 1), axis=1)


def train(model, samples, config: TrainConfig, task: str = "single_label",
          on_epoch: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """Run the full training loop in place; returns the per-epoch history.

    Args:
        model: a fusion or concat model exposing ``forward_batch(samples,
            rngs)`` and ``named_parameters()``.
        samples: sequence of dataset samples.
        config: optimizer/schedule settings; ``config.seed`` drives epoch
            shuffling, subsampling, and dropout, so identical configs give
            bit-identical trained parameters.
        task: "single_label" or "multi_label", for the logged accuracy.
        on_epoch: optional callback receiving each epoch's log record.

    Each epoch shuffles the sample order and walks minibatches. A minibatch
    is one batched forward pass, in which every sample draws from its own
    stream, and one backward pass of the batch-mean loss, then one optimizer
    step. A non-finite loss raises NumericError naming the batch's first
    sample whose loss is not finite.
    """
    if not samples:
        raise DataError("cannot train on an empty dataset")
    params = model.named_parameters()
    state = AdamWState(params, weight_decay=config.weight_decay)
    labels = np.stack([s.labels for s in samples])
    if config.class_weighting:
        weights = inverse_sqrt_class_weights(labels)
    else:
        weights = np.ones(model.num_classes)

    history = []
    n = len(samples)
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        order = derive_rng(config.seed, "shuffle", epoch).permutation(n)
        loss_sum = 0.0
        acc_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            batch = [samples[i] for i in batch_idx]
            for p in params.values():
                p.grad = None
            rngs = [sample_rng(config.seed, epoch, s.sample_id) for s in batch]
            with T.Tape():
                logits, _ = model.forward_batch(batch, rngs)
                losses = weighted_sigmoid_ce(logits, labels[batch_idx], weights)
            loss_values = losses.data[:, 0]
            bad = np.flatnonzero(~np.isfinite(loss_values))
            if bad.size:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, sample {batch[bad[0]].sample_id!r}"
                )
            T.backward(losses, np.full(losses.shape, 1.0 / len(batch)))
            loss_sum += float(loss_values.sum())
            acc_sum += float(_accuracy_terms(T.sigmoid_values(logits.data),
                                             labels[batch_idx], task).sum())
            adamw_step(params, {name: p.grad for name, p in params.items()}, state, lr)
        record = {
            "epoch": epoch,
            "lr": lr,
            "loss": loss_sum / n,
            "train_accuracy": acc_sum / n,
        }
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return history


def kfold_split(num_samples: int, k: int = 5, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic shuffled k-fold partition of ``range(num_samples)``.

    Returns k (train_indices, eval_indices) pairs; eval folds are disjoint,
    cover every index, and differ in size by at most one (larger folds
    first).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if num_samples < k:
        raise ValueError(f"dataset of {num_samples} samples is smaller than k={k}")
    perm = np.random.default_rng(seed).permutation(num_samples)
    folds = np.array_split(perm, k)
    splits = []
    for i in range(k):
        train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
        splits.append((train_idx, folds[i]))
    return splits
