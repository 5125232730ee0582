"""Shared test utilities: finite-difference oracles, tiny fixtures, and the
differentiable ops only tests use.

The gradient oracle is deliberately independent of the tape: it re-runs a
value-only forward with each parameter entry nudged up and down.
"""

import numpy as np

from mmsets.data import ModalityInstance, Sample
from mmsets.fusion import ModalitySpec
from mmsets.tensor import Tensor, accumulate_grad, register_op, sigmoid_values


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
