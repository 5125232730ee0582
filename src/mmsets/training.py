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
from .metrics import decide
# sample_rng is unused, but perfbench's traced run wraps it here
from .seeding import derive_rng, sample_rng, sample_states, stable_hash  # noqa: F401

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
    """AdamW over one flat vector: ``theta`` holds every parameter in
    ``params`` order, and each parameter's ``data`` and ``grad`` become views
    of its run of ``theta`` and of the zeroed ``grad``. ``m`` and ``v`` match
    them. ``scratch`` holds four vectors of that length: a step's new ``m``,
    ``v`` and ``theta`` and its denominator. Nothing may rebind a ``data`` or
    ``grad`` while the state is used."""

    def __init__(self, params: dict[str, T.Tensor],
                 weight_decay: float = TrainConfig.weight_decay):
        self.names = list(params)
        self.ends = np.cumsum([p.data.size for p in params.values()])
        self.theta = np.concatenate([p.data.reshape(-1) for p in params.values()])
        self.grad, self.m, self.v = np.zeros((3, self.theta.size))
        self.scratch = list(np.empty((4, self.theta.size)))
        runs = zip(np.split(self.theta, self.ends[:-1]), np.split(self.grad, self.ends[:-1]))
        for p, (data, grad) in zip(params.values(), runs):
            p.data = data.reshape(p.data.shape)
            p.grad = grad.reshape(p.data.shape)
        self.t = 0
        self.weight_decay = weight_decay

    def first_nonfinite(self, values: np.ndarray) -> Optional[str]:
        """The name of the parameter whose run of ``values``, a vector laid
        out like ``theta``, holds the first non-finite entry; None if none."""
        finite = np.isfinite(values)
        if finite.all():
            return None
        return self.names[np.searchsorted(self.ends, np.argmin(finite), side="right")]


def adamw_step(state: AdamWState, lr: float) -> None:
    """One AdamW update of ``state.theta``: the bias-corrected Adam step on
    ``state.grad``, then the decoupled decay theta *= 1 - lr*wd, so a
    zero-gradient step is a pure shrink. The new moments and parameters are
    computed aside and committed only when all are finite. A non-finite
    gradient, or a step that would make a moment or a parameter non-finite,
    raises NumericError naming the parameter, and leaves the state as it
    was."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    t = state.t + 1
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    m, v, theta, denom = state.scratch
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(state.m, BETA1, out=m)
        m += np.multiply(state.grad, 1.0 - BETA1, out=theta)
        np.multiply(state.v, BETA2, out=v)
        v += np.multiply(np.square(state.grad, out=theta), 1.0 - BETA2, out=theta)
        # theta - lr * (m / c1) / (sqrt(v / c2) + EPS), in that float order
        np.multiply(np.divide(m, c1, out=theta), lr, out=theta)
        np.sqrt(np.divide(v, c2, out=denom), out=denom)
        denom += EPS
        np.subtract(state.theta, np.divide(theta, denom, out=theta), out=theta)
        theta *= 1.0 - lr * state.weight_decay
    for new in (theta, v):  # a non-finite grad or m makes theta non-finite, even at lr 0
        name = state.first_nonfinite(new)
        if name is not None:
            raise NumericError(f"AdamW step {t} would make parameter {name!r} non-finite")
    state.scratch[:2] = state.m, state.v
    state.m, state.v = m, v
    state.theta[...] = theta  # the parameters are views of theta: copy, never rebind
    state.t = t


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
    pred = decide(scores, task)
    if task == "single_label":
        return (pred == np.argmax(labels, axis=1)).astype(np.float64)
    return np.mean(pred == labels, axis=1)


def _streams(rng, states, idx):
    """Sample i of ``idx`` in turn: ``rng``, set to ``states[i]``."""
    for i in idx.tolist():
        rng.bit_generator.state = states[i]
        yield rng


def train(model, samples, config: TrainConfig, task: str = "single_label",
          on_epoch: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """Run the full training loop in place; returns the per-epoch history.

    Args:
        model: a fusion or concat model exposing ``group(samples)``,
            ``forward_runs(runs, rngs)`` and ``named_parameters()``.
        samples: sequence of dataset samples.
        config: optimizer/schedule settings; ``config.seed`` drives epoch
            shuffling, subsampling, and dropout, so identical configs give
            bit-identical trained parameters.
        task: "single_label" or "multi_label", for the logged accuracy.
        on_epoch: optional callback receiving each epoch's log record.

    The model's ``group`` turns the samples into their runs once per call,
    so any payload its encoder rejects or an empty set fails before epoch
    0; each sample id is hashed once. Each epoch shuffles the samples
    with the stream keyed ``(seed, "shuffle", epoch)``, and sample ``id``
    draws from the stream keyed ``(seed, epoch, id)``, the one
    ``sample_rng`` gives; ``sample_states`` derives every sample's start
    state at once (FORMATS.md, "Random streams"), and one reused generator
    is set to each in turn. A minibatch is one forward pass, each sample
    drawing from its own stream, one backward pass of the batch-mean loss
    and one optimizer step. A non-finite loss raises NumericError naming the
    batch's first such sample; a failed step's NumericError is re-raised
    prefixed with the epoch and the batch's sample ids, in batch order.
    """
    if not samples:
        raise DataError("cannot train on an empty dataset")
    runs = model.group(samples)
    hashes = [stable_hash(sample.sample_id) for sample in samples]
    rng = np.random.Generator(np.random.PCG64())
    state = AdamWState(model.named_parameters(), weight_decay=config.weight_decay)
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
        states = sample_states(config.seed, epoch, hashes)
        loss_sum = 0.0
        acc_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            state.grad.fill(0.0)
            with T.Tape():
                logits, _ = model.forward_runs([runs[i] for i in batch_idx.tolist()],
                                               _streams(rng, states, batch_idx))
                losses = weighted_sigmoid_ce(logits, labels[batch_idx], weights)
            loss_values = losses.data[:, 0]
            bad = np.flatnonzero(~np.isfinite(loss_values))
            if bad.size:
                raise NumericError(f"non-finite loss at epoch {epoch}, "
                                   f"sample {samples[batch_idx[bad[0]]].sample_id!r}")
            T.backward(losses, np.full(losses.shape, 1.0 / len(batch_idx)))
            loss_sum += float(loss_values.sum())
            acc_sum += float(_accuracy_terms(T.sigmoid_values(logits.data),
                                             labels[batch_idx], task).sum())
            try:
                adamw_step(state, lr)
            except NumericError as err:
                ids = [samples[i].sample_id for i in batch_idx]
                raise NumericError(f"epoch {epoch}, batch of samples {ids}: {err}") from err
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
