"""Shared test utilities: finite-difference oracles, tiny fixtures, and the
differentiable ops only tests use.

The gradient oracle is deliberately independent of the tape: it re-runs a
value-only forward with each parameter entry nudged up and down.
"""

import numpy as np

import mmsets.tensor as T
from mmsets.data import ModalityInstance, Sample
from mmsets.fusion import ModalitySpec
from mmsets.seeding import derive_rng, sample_rng
from mmsets.tensor import Tensor, accumulate_grad, register_op, sigmoid_values
from mmsets.training import (AdamWState, _accuracy_terms, adamw_step,
                             inverse_sqrt_class_weights, lr_at, weighted_sigmoid_ce)


def central_diff(f, array: np.ndarray, h: float) -> np.ndarray:
    """d f / d array by central differences, mutating ``array`` in place."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a-n| / max(|a|, |n|, 1e-6), maximized."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def mixed_specs(max_instances: int = 10):
    """One dense and one index-sequence modality, desk scale."""
    return [
        ModalitySpec("img", "dense", input_dim=6, max_instances=max_instances),
        ModalitySpec("obj", "index_sequence", vocab_size=12, max_instances=max_instances),
    ]


def random_sample(rng: np.random.Generator, specs, sample_id: str = "s0",
                  min_instances: int = 1, max_instances: int = 3,
                  num_classes: int = 2, single_label: bool = True) -> Sample:
    """Random ragged sample over a subset of ``specs`` (always nonempty)."""
    instances = []
    present = [s for s in specs if rng.random() < 0.8]
    if not present:
        present = [specs[int(rng.integers(len(specs)))]]
    for spec in present:
        for _ in range(int(rng.integers(min_instances, max_instances + 1))):
            if spec.kind == "dense":
                payload = rng.standard_normal(spec.input_dim)
            else:
                length = int(rng.integers(1, 7))
                payload = rng.integers(0, spec.vocab_size, size=length)
            instances.append(ModalityInstance(spec.modality_id, payload))
    labels = np.zeros(num_classes, dtype=np.int64)
    if single_label:
        labels[int(rng.integers(num_classes))] = 1
    else:
        labels[rng.random(num_classes) < 0.5] = 1
        if labels.sum() == 0:
            labels[int(rng.integers(num_classes))] = 1
    return Sample(sample_id=sample_id, instances=instances, labels=labels)


def shuffled_copy(sample: Sample, rng: np.random.Generator) -> Sample:
    """Same sample with its stored instance order permuted."""
    order = rng.permutation(len(sample.instances))
    return Sample(sample_id=sample.sample_id,
                  instances=[sample.instances[i] for i in order],
                  labels=sample.labels, group=sample.group)


def reference_train(model, samples, config, task="single_label") -> list[dict]:
    """``train`` as a plain loop: every batch is ``forward_batch`` of its
    samples, each with a fresh ``sample_rng`` stream, then the loss, one
    backward pass and one AdamW step. ``train`` must match it bit for bit."""
    state = AdamWState(model.named_parameters(), weight_decay=config.weight_decay)
    labels = np.stack([s.labels for s in samples])
    weights = (inverse_sqrt_class_weights(labels) if config.class_weighting
               else np.ones(model.num_classes))
    history = []
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        order = derive_rng(config.seed, "shuffle", epoch).permutation(len(samples))
        loss_sum = acc_sum = 0.0
        for start in range(0, len(samples), config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            batch = [samples[i] for i in batch_idx]
            state.grad.fill(0.0)
            rngs = [sample_rng(config.seed, epoch, s.sample_id) for s in batch]
            with T.Tape():
                logits, _ = model.forward_batch(batch, rngs)
                losses = weighted_sigmoid_ce(logits, labels[batch_idx], weights)
            T.backward(losses, np.full(losses.shape, 1.0 / len(batch)))
            loss_sum += float(losses.data[:, 0].sum())
            acc_sum += float(_accuracy_terms(sigmoid_values(logits.data),
                                             labels[batch_idx], task).sum())
            adamw_step(state, lr)
        history.append({"epoch": epoch, "lr": lr, "loss": loss_sum / len(samples),
                        "train_accuracy": acc_sum / len(samples)})
    return history


# ---------------------------------------------------------------------------
# test-only tensor ops, built on the same extension point as the models' ops


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shapes differ: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return register_op(out, (a, b), backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    out_data = sigmoid_values(x.data)
    out = Tensor(out_data)

    def backward_fn(g):
        accumulate_grad(x, g * out_data * (1.0 - out_data))

    return register_op(out, (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Sum every element into a [1,1] scalar tensor."""
    out = Tensor([[x.data.sum()]])

    def backward_fn(g):
        accumulate_grad(x, np.full_like(x.data, g[0, 0]))

    return register_op(out, (x,), backward_fn)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply every element by a constant."""
    out = Tensor(x.data * factor)

    def backward_fn(g):
        accumulate_grad(x, g * factor)

    return register_op(out, (x,), backward_fn)
