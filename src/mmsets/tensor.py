"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every operation computes eagerly with numpy and, while a Tape is active,
records a backward rule on its output. Shapes are always explicit; the only
broadcast in the whole module is the bias that ``linear`` adds to every row.
Gradient buffers persist until reset, so minibatch accumulation is just a
sequence of backward calls.

A set minibatch is one block of rows: each sample's elements are a run of
consecutive rows, and ``reduce_over_set`` pools every run to one row.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import EmptySetError

POOL_MODES = ("sum", "max", "min", "mean")
WIDE_ROWS = 128  # max/min pooling of rows this wide takes one arg-reduction per set

_LOCAL = threading.local()


def active_tape() -> Optional["Tape"]:
    return getattr(_LOCAL, "tape", None)


class Tape:
    """Execution-ordered log of differentiable operations.

    Operations are appended as they execute, so the log is already a
    topological order of the computation. The backward pass replays it in
    reverse, visiting every record exactly once.

    The log holds its outputs by weak reference; each output holds the tape
    and its own backward rule, and each rule holds the rule's inputs. A loss
    therefore keeps alive exactly the graph behind it, and dropping the loss
    frees the graph and the tape at once, without the cycle collector.
    """

    def __init__(self) -> None:
        self._outputs: list[weakref.ref] = []

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise RuntimeError("a Tape is already active in this thread")
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LOCAL.tape = None

    def record(self, out: "Tensor") -> None:
        self._outputs.append(weakref.ref(out))

    def __len__(self) -> int:
        return len(self._outputs)


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "tape", "backward_fn", "__weakref__")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.tape: Optional[Tape] = None
        self.backward_fn: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() expects one element, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.data.shape)}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.tape is not None


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into the gradient buffer of ``t``, allocating on first use.

    ``g`` is dropped when ``t`` is neither a parameter nor a recorded output.
    """
    if not _tracked(t):
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def register_op(out: Tensor, inputs: Iterable[Tensor],
                backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Attach ``out`` to the active tape when any input participates in autodiff.

    ``backward_fn(g)`` gets the gradient of ``out`` and passes every input's
    share to ``accumulate_grad`` without checking the input; it must not hold
    ``out``. This is the extension point for custom differentiable operations
    defined outside this module (the training loss uses it).
    """
    tape = active_tape()
    if tape is not None and any(_tracked(t) for t in inputs):
        out.tape = tape
        out.backward_fn = backward_fn
        tape.record(out)
    return out


def backward(loss: Tensor, grad: Optional[np.ndarray] = None) -> None:
    """Populate d(objective)/d(tensor) for every tensor behind ``loss``.

    ``grad`` is d(objective)/d(loss), the shape of ``loss``; it may be left
    out for a one-element loss, where it is 1. Non-leaf gradients are
    rebuilt from scratch on every call while leaf (requires_grad) buffers
    keep accumulating, so calling twice doubles the leaf gradients.
    """
    if grad is None:
        if loss.data.size != 1:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        grad = np.ones_like(loss.data)
    elif np.shape(grad) != loss.data.shape:
        raise ValueError(f"backward grad of shape {np.shape(grad)} does not match "
                         f"the loss shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise ValueError("loss was not recorded on a live Tape")
    outputs = [t for t in (ref() for ref in tape._outputs) if t is not None]
    for t in outputs:
        t.grad = None
    loss.grad = np.array(grad, dtype=np.float64)
    for t in reversed(outputs):
        if t.grad is not None:
            t.backward_fn(t.grad)


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

    def backward_fn(g):
        accumulate_grad(x, g @ weight.data.T)
        accumulate_grad(weight, x.data.T @ g)
        accumulate_grad(bias, g.sum(axis=0, keepdims=True))

    return register_op(out, (x, weight, bias), backward_fn)


def elu(x: Tensor) -> Tensor:
    """Elementwise x if x > 0 else exp(x)-1."""
    d = x.data
    neg = d <= 0.0
    # expm1 over every entry, clipped so that none overflows, then x put back
    # where x > 0 (or NaN): faster than a masked expm1, and the same bits
    out_data = np.minimum(d, 1.0)
    np.expm1(out_data, out=out_data)
    np.copyto(out_data, d, where=~neg)
    out = Tensor(out_data)

    def backward_fn(g):
        # exp(x) recovered from the output
        accumulate_grad(x, g * np.where(neg, out_data + 1.0, 1.0))

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


def dropout(x: Tensor, p: float, uniforms: np.ndarray) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p).

    ``uniforms``, an array of the shape of ``x`` drawn by the caller, decides
    each entry: it is zeroed where its uniform is below ``p``. Only training
    calls this op; inference leaves dropout out.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if uniforms.shape != x.data.shape:
        raise ValueError(f"dropout uniforms of shape {uniforms.shape} do not match "
                         f"the input shape {x.data.shape}")
    mask = (uniforms >= p) / (1.0 - p)
    out = Tensor(x.data * mask)

    def backward_fn(g):
        accumulate_grad(x, g * mask)

    return register_op(out, (x,), backward_fn)


def reduce_over_set(x: Tensor, mode: str, sizes: Sequence[int]
                    ) -> tuple[Tensor, Optional[np.ndarray]]:
    """Reduce each set of rows of ``x`` [N,D] to one row: [B,D] for B sets.

    ``sizes`` holds each set's row count, in row order, so ``[N]`` makes all
    of ``x`` one set; the counts must add up to N. For max/min the second
    return value holds, per set and column, the row of ``x`` that supplied
    the extremum, [B,D]; ties resolve to the lowest row of the set, and a NaN
    wins as it does in ``np.argmax``. ``out[b, d]`` is ``x[argidx[b, d], d]``
    bit for bit, so a tie of -0.0 and +0.0 keeps the arg row's sign. Sum/mean
    return None.
    Backward routes each set's upstream gradient to every row of the set
    (sum/mean, the latter divided by the set size) or only to the arg rows
    (max/min). An empty set raises EmptySetError.
    """
    if mode not in POOL_MODES:
        raise ValueError(f"unknown reduction mode {mode!r}, expected one of {POOL_MODES}")
    d = x.data
    if d.ndim != 2:
        raise ValueError(f"reduce_over_set expects a [N,D] tensor, got shape {d.shape}")
    n_rows = d.shape[0]
    sizes = np.asarray(sizes, dtype=np.intp)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 0 or sizes.sum() != n_rows:
        raise ValueError(f"set sizes must be a nonempty 1-D array of counts >= 0 adding "
                         f"up to {n_rows}, got {sizes.tolist()}")
    smallest = sizes.min()
    if smallest == 0:
        raise EmptySetError("cannot reduce an empty set")
    first = np.cumsum(sizes) - sizes
    cols = np.arange(d.shape[1])
    argidx: Optional[np.ndarray] = None
    if mode == "sum" or mode == "mean":
        out_data = np.add.reduceat(d, first, axis=0)
        if mode == "mean":
            out_data /= sizes[:, None]
    elif sizes.size == 1 or d.shape[1] >= WIDE_ROWS:
        # one arg-reduction per set: for wide rows it beats the ragged search below
        arg_reduce = np.argmax if mode == "max" else np.argmin
        argidx = np.array([arg_reduce(d[lo:lo + n], axis=0) + lo
                           for lo, n in zip(first.tolist(), sizes.tolist())])
    else:
        extremum = (np.maximum if mode == "max" else np.minimum).reduceat(d, first, axis=0)
        # the lowest row of each set that holds the extremum (or a NaN)
        hit = d == extremum.repeat(sizes, axis=0)
        hit |= np.isnan(d)
        argidx = np.minimum.reduceat(np.where(hit, np.arange(n_rows)[:, None], n_rows),
                                     first, axis=0)
    if argidx is not None:
        out_data = d[argidx, cols]
    out = Tensor(out_data)

    def backward_fn(g):
        if mode == "sum":
            gx = g.repeat(sizes, axis=0)
        elif mode == "mean":
            gx = (g / sizes[:, None]).repeat(sizes, axis=0)
        else:
            gx = np.zeros_like(d)
            gx[argidx, cols] = g
        accumulate_grad(x, gx)

    return register_op(out, (x,), backward_fn), argidx


def conv1d_over_sequence(emb: Tensor, kernels: Tensor, lengths: Sequence[int]) -> Tensor:
    """Valid-mode 1-D convolution over sequence positions.

    ``emb`` is [L,E]: the sequences back to back, ``lengths`` long (``[L]``
    for one sequence). ``kernels`` is [w,E,F]. The result holds one
    row per window that lies inside one sequence: each sequence's
    (length-w+1) windows, in order, sequence after sequence.
    """
    if emb.data.ndim != 2 or kernels.data.ndim != 3:
        raise ValueError(
            f"conv1d expects [L,E] and [w,E,F], got {emb.data.shape} and {kernels.data.shape}"
        )
    seq_len, emb_dim = emb.data.shape
    width, k_emb, _ = kernels.data.shape
    if k_emb != emb_dim:
        raise ValueError(f"embedding width mismatch: sequence {emb_dim}, kernels {k_emb}")
    lengths = [int(n) for n in lengths]
    if sum(lengths) != seq_len:
        raise ValueError(f"sequence lengths {lengths} do not add up to {seq_len}")
    if min(lengths) < width:
        raise ValueError(f"sequence too short: length {min(lengths)} < kernel width {width}")
    positions = seq_len - width + 1
    every = emb.data[0:positions] @ kernels.data[0]
    for j in range(1, width):
        every += emb.data[j:j + positions] @ kernels.data[j]
    # keep the windows that do not cross from one sequence into the next:
    # output row r, of sequence i, is the window that starts at row r + i*(width-1)
    windows = np.array(lengths) - (width - 1)
    keep = np.arange(windows.sum()) + (width - 1) * np.arange(len(lengths)).repeat(windows)
    out = Tensor(every[keep])

    def backward_fn(g):
        g_every = np.zeros((positions, g.shape[1]))
        g_every[keep] = g
        de = np.zeros_like(emb.data)
        dk = np.empty_like(kernels.data)
        for j in range(width):
            de[j:j + positions] += g_every @ kernels.data[j].T
            dk[j] = emb.data[j:j + positions].T @ g_every
        accumulate_grad(emb, de)
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

    def backward_fn(g):
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

    def backward_fn(g):
        g_rows = g.swapaxes(0, axis)  # join axis first: each part is a run of rows
        lo = 0
        for t, sh in zip(parts, shapes):
            hi = lo + sh[axis]
            accumulate_grad(t, g_rows[lo:hi].swapaxes(0, axis))
            lo = hi

    return register_op(out, tuple(parts), backward_fn)


def scatter_rows(x: Tensor, rows: np.ndarray, shape: tuple[int, int]) -> Tensor:
    """Place the rows of ``x`` [n,D] into a zero [R,C] tensor.

    The result is viewed as R*C/D rows of width D, and row i of ``x`` lands
    on row ``rows[i]`` of that view; the destinations must be distinct. A
    permutation of range(n) with shape [n,D] reorders rows; with C a
    multiple of D, rows land in fixed column slots of each output row.
    """
    n, width = x.data.shape
    idx = np.asarray(rows, dtype=np.intp)
    if len(shape) != 2 or shape[1] % width or idx.shape != (n,):
        raise ValueError(f"cannot place {n} rows of width {width} into shape {shape} "
                         f"with {idx.shape[0]} destinations")
    out_data = np.zeros(shape)
    out_data.reshape(-1, width)[idx] = x.data
    out = Tensor(out_data)

    def backward_fn(g):
        accumulate_grad(x, g.reshape(-1, width)[idx])

    return register_op(out, (x,), backward_fn)
