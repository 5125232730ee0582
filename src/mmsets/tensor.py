"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every operation computes eagerly with numpy and, while a Tape is active,
records a backward rule. Shapes are always explicit; the only broadcast in
the whole module is the bias that ``linear`` adds to every row. Gradient
buffers persist until reset, so minibatch accumulation is just a sequence of
backward calls.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import EmptySetError

POOL_MODES = ("sum", "max", "min", "mean")

_LOCAL = threading.local()


def active_tape() -> Optional["Tape"]:
    return getattr(_LOCAL, "tape", None)


class Tape:
    """Execution-ordered log of differentiable operations.

    Operations are appended as they execute, so the log is already a
    topological order of the computation. The backward pass replays it in
    reverse, visiting every record exactly once.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, Callable[[], None]]] = []

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise RuntimeError("a Tape is already active in this thread")
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LOCAL.tape = None

    def record(self, out: "Tensor", backward_fn: Callable[[], None]) -> None:
        self._records.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._records)


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.tape: Optional[Tape] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() expects one element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.data.shape)}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into the gradient buffer of ``t``, allocating on first use."""
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.tape is not None


def register_op(out: Tensor, inputs: Iterable[Tensor], backward_fn: Callable[[], None]) -> Tensor:
    """Attach ``out`` to the active tape when any input participates in autodiff.

    This is the extension point for custom differentiable operations defined
    outside this module (the training loss uses it).
    """
    tape = active_tape()
    if tape is not None and any(_tracked(t) for t in inputs):
        out.tape = tape
        tape.record(out, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Populate d(loss)/d(tensor) for every tensor behind a scalar ``loss``.

    Non-leaf gradients are rebuilt from scratch on every call while leaf
    (requires_grad) buffers keep accumulating, so calling twice doubles the
    leaf gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise ValueError("loss was not recorded on a live Tape")
    for out, _ in tape._records:
        out.grad = None
    loss.grad = np.ones_like(loss.data)
    for _, fn in reversed(tape._records):
        fn()


# ---------------------------------------------------------------------------
# operations


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight + bias`` for x [n,m], weight [m,d], bias [1,d].

    The bias is added to every row of the product; its gradient sums over
    the rows.
    """
    xs, ws, bs = x.data.shape, weight.data.shape, bias.data.shape
    if len(xs) != 2 or len(ws) != 2 or xs[1] != ws[0] or bs != (1, ws[1]):
        raise ValueError(f"linear shapes do not fit: x {xs}, weight {ws}, bias {bs}")
    out = Tensor(x.data @ weight.data + bias.data)

    def backward_fn():
        g = out.grad
        if g is None:
            return
        if _tracked(x):
            accumulate_grad(x, g @ weight.data.T)
        if _tracked(weight):
            accumulate_grad(weight, x.data.T @ g)
        if _tracked(bias):
            accumulate_grad(bias, g.sum(axis=0, keepdims=True))

    return register_op(out, (x, weight, bias), backward_fn)


def scale(x: Tensor, factor: float) -> Tensor:
    out = Tensor(x.data * factor)

    def backward_fn():
        g = out.grad
        if g is None:
            return
        if _tracked(x):
            accumulate_grad(x, g * factor)

    return register_op(out, (x,), backward_fn)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Elementwise x if x > 0 else alpha*(exp(x)-1)."""
    d = x.data
    neg = d <= 0.0
    out_data = d.copy()
    out_data[neg] = alpha * np.expm1(d[neg])
    out = Tensor(out_data)

    def backward_fn():
        g = out.grad
        if g is None or not _tracked(x):
            return
        dx = g.copy()
        dx[neg] *= out_data[neg] + alpha  # alpha*exp(x) recovered from the output
        accumulate_grad(x, dx)

    return register_op(out, (x,), backward_fn)


def sigmoid_values(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on a raw array."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p).

    Eval mode returns ``x`` itself, so the inference path is the exact
    identity rather than a numerically equivalent copy.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if not training:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * mask)

    def backward_fn():
        g = out.grad
        if g is None or not _tracked(x):
            return
        accumulate_grad(x, g * mask)

    return register_op(out, (x,), backward_fn)


def reduce_over_set(x: Tensor, mode: str) -> tuple[Tensor, Optional[np.ndarray]]:
    """Reduce the S rows of ``x`` [S,D] to one row.

    For max/min the second return value holds, per column, the row index of
    the extremum (ties resolve to the lowest index); sum/mean return None.
    Backward routes the upstream gradient to every row (sum/mean, the latter
    divided by S) or only to the arg rows (max/min).
    """
    if mode not in POOL_MODES:
        raise ValueError(f"unknown reduction mode {mode!r}, expected one of {POOL_MODES}")
    d = x.data
    if d.ndim != 2:
        raise ValueError(f"reduce_over_set expects a [S,D] tensor, got shape {d.shape}")
    n_rows = d.shape[0]
    if n_rows == 0:
        raise EmptySetError("cannot reduce an empty set")
    argidx: Optional[np.ndarray] = None
    if mode == "sum":
        out_data = d.sum(axis=0, keepdims=True)
    elif mode == "mean":
        out_data = d.mean(axis=0, keepdims=True)
    else:
        argidx = d.argmax(axis=0) if mode == "max" else d.argmin(axis=0)
        out_data = d[argidx, np.arange(d.shape[1])][None, :]
    out = Tensor(out_data)

    def backward_fn():
        g = out.grad
        if g is None or not _tracked(x):
            return
        if mode == "sum":
            gx = np.repeat(g, n_rows, axis=0)
        elif mode == "mean":
            gx = np.repeat(g / n_rows, n_rows, axis=0)
        else:
            gx = np.zeros_like(d)
            gx[argidx, np.arange(d.shape[1])] = g[0]
        accumulate_grad(x, gx)

    register_op(out, (x,), backward_fn)
    return out, argidx


def conv1d_over_sequence(emb: Tensor, kernels: Tensor) -> Tensor:
    """Valid-mode 1-D convolution over sequence positions.

    ``emb`` is [L,E], ``kernels`` is [w,E,F]; the result is [(L-w+1),F],
    one row per window position.
    """
    if emb.data.ndim != 2 or kernels.data.ndim != 3:
        raise ValueError(
            f"conv1d expects [L,E] and [w,E,F], got {emb.data.shape} and {kernels.data.shape}"
        )
    seq_len, emb_dim = emb.data.shape
    width, k_emb, _ = kernels.data.shape
    if k_emb != emb_dim:
        raise ValueError(f"embedding width mismatch: sequence {emb_dim}, kernels {k_emb}")
    if seq_len < width:
        raise ValueError(f"sequence too short: length {seq_len} < kernel width {width}")
    positions = seq_len - width + 1
    out_data = emb.data[0:positions] @ kernels.data[0]
    for j in range(1, width):
        out_data += emb.data[j:j + positions] @ kernels.data[j]
    out = Tensor(out_data)

    def backward_fn():
        g = out.grad
        if g is None:
            return
        if _tracked(emb):
            de = np.zeros_like(emb.data)
            for j in range(width):
                de[j:j + positions] += g @ kernels.data[j].T
            accumulate_grad(emb, de)
        if _tracked(kernels):
            dk = np.empty_like(kernels.data)
            for j in range(width):
                dk[j] = emb.data[j:j + positions].T @ g
            accumulate_grad(kernels, dk)

    return register_op(out, (emb, kernels), backward_fn)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of a [V,E] table by an int vector, as a [L,E] tensor."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("embedding_lookup needs a 1-D integer index array")
    vocab = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise ValueError(f"index out of vocabulary range [0, {vocab})")
    out = Tensor(table.data[idx])

    def backward_fn():
        g = out.grad
        if g is None or not _tracked(table):
            return
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        accumulate_grad(table, dt)

    return register_op(out, (table,), backward_fn)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join 2-D tensors along ``axis``: 0 stacks rows, 1 joins columns."""
    if axis not in (0, 1):
        raise ValueError(f"concat axis must be 0 or 1, got {axis!r}")
    shapes = [t.data.shape for t in parts]
    if not parts or any(len(sh) != 2 or sh[1 - axis] != shapes[0][1 - axis] for sh in shapes):
        raise ValueError(f"concat along axis {axis} needs matching 2-D tensors, got {shapes}")
    out = Tensor(np.concatenate([t.data for t in parts], axis=axis))

    def backward_fn():
        g = out.grad
        if g is None:
            return
        g_rows = g.swapaxes(0, axis)  # join axis first: each part is a run of rows
        lo = 0
        for t, sh in zip(parts, shapes):
            hi = lo + sh[axis]
            if _tracked(t):
                accumulate_grad(t, g_rows[lo:hi].swapaxes(0, axis))
            lo = hi

    return register_op(out, tuple(parts), backward_fn)
