"""Span timers for the benchmark's traced run.

The traced run replaces the public functions of each mmsets layer with
timing wrappers for the duration of a ``with installed(tracer):`` block and
puts the originals back when it ends, so untraced runs time unwrapped code
and no file of the program changes. Spans nest: a span's self time is its
duration minus the time its child spans cover, so the self times of every
span opened inside a call add up to that call's duration. Only this
process's ``perf_counter`` is read; nothing system-wide is traced.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from mmsets import checkpoint as mcheckpoint
from mmsets import data as mdata
from mmsets import evaluate as mevaluate
from mmsets import fusion as mfusion
from mmsets import seeding as mseeding
from mmsets import tensor as mtensor
from mmsets import training as mtraining

HOOKS = "trace.hooks"


class Tracer:
    """Per span name: self seconds, total seconds and calls; plus counters.

    Spans are aggregated in memory as they close; nothing is written while
    the traced code runs.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans as [name, seconds covered by children]

    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def _close(self, name: str, seconds: float, children: float) -> None:
        self.self_s[name] += seconds - children
        self.total_s[name] += seconds
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += seconds

    def span(self, name: str, after=None):
        """Decorator timing each call of ``fn`` as a span called ``name``.

        ``after(result, args, kwargs)`` runs once the span has closed; its
        time is booked to ``trace.hooks`` and removed from the enclosing
        span, so bookkeeping never counts as a layer's work.
        """
        stack = self._stack

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    return_value = fn(*args, **kwargs)
                finally:
                    seconds = time.perf_counter() - start
                    stack.pop()
                    self._close(name, seconds, frame[1])
                if after is not None:
                    start = time.perf_counter()
                    after(return_value, args, kwargs)
                    self._close(HOOKS, time.perf_counter() - start, 0.0)
                return return_value
            return wrapper
        return decorate

    def counter(self, name: str):
        """Decorator counting calls of ``fn`` without opening a span."""
        counts = self.counts

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return decorate


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, decorator) for every layer boundary the run times.

    Functions are patched where their callers look them up: ``derive_rng``
    is imported by name into three modules, so each binding is wrapped.
    """
    counts = tracer.counts

    def samples_loaded(result, args, kwargs):
        counts["data.samples_loaded"] += len(result[1])

    def checkpoint_bytes(result, args, kwargs):
        counts["checkpoint.bytes"] += Path(args[0]).stat().st_size

    def tape_records(result, args, kwargs):
        counts["tensor.tape_records"] += len(args[0].tape)

    def pool_winners(result, args, kwargs):
        _, argidx = result
        if argidx is not None:
            counts["fusion.pool_rows"] += args[0].data.shape[0]
            counts["fusion.pool_winners"] += np.unique(argidx).size

    def pool_unless_in_sequence_encoder(fn):
        # max-over-time inside the sequence encoder belongs to that encoder
        timed = tracer.span("fusion.pool", after=pool_winners)(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.parent() == "fusion.encode_sequence":
                return fn(*args, **kwargs)
            return timed(*args, **kwargs)
        return wrapper

    span = tracer.span
    derive = tracer.counter("seeding.derive_rng_calls")
    return [
        (mdata, "load_dataset_dir", span("data.load", after=samples_loaded)),
        (mcheckpoint, "save_checkpoint", span("checkpoint.save")),
        (mcheckpoint, "load_checkpoint", span("checkpoint.load", after=checkpoint_bytes)),
        (mevaluate, "evaluate_model", span("metrics.fold_metrics")),
        (mevaluate, "predict_scores", span("evaluate.predict")),
        (mtraining, "train", span("training.train")),
        (mtraining, "adamw_step", span("training.adamw_step")),
        (mtraining, "weighted_sigmoid_ce", span("training.loss")),
        (mtraining, "sample_rng", span("seeding.sample_rng")),
        (mtensor, "backward", span("tensor.backward", after=tape_records)),
        (mtensor, "reduce_over_set", pool_unless_in_sequence_encoder),
        (mfusion, "build_set", span("fusion.build_set")),
        (mfusion.DenseEncoder, "encode", span("fusion.encode_dense")),
        (mfusion.SequenceEncoder, "encode", span("fusion.encode_sequence")),
        (mfusion.Mlp, "__call__", span("fusion.predictor")),
        (mfusion.FusionModel, "forward", span("fusion.forward")),
        (mfusion.ConcatModel, "forward", span("fusion.forward")),
        (mseeding, "derive_rng", derive),
        (mfusion, "derive_rng", derive),
        (mtraining, "derive_rng", derive),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the block; restore the originals after,
    also when the block raises."""
    originals = []
    try:
        for owner, attr, decorate in _patches(tracer):
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, decorate(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from one traced cycle. Every ``_s`` value is
    self time; a layer not on the workload's path reads 0."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    encoded = calls["fusion.encode_dense"] + calls["fusion.encode_sequence"]
    return {
        "fusion.encode_dense_s": s["fusion.encode_dense"],
        "fusion.encode_dense_calls": calls["fusion.encode_dense"],
        "fusion.encode_sequence_s": s["fusion.encode_sequence"],
        "fusion.encode_sequence_calls": calls["fusion.encode_sequence"],
        "fusion.pool_s": s["fusion.pool"],
        "fusion.predictor_s": s["fusion.predictor"],
        "fusion.build_set_s": s["fusion.build_set"],
        "fusion.forward_self_s": s["fusion.forward"],
        "fusion.elements_per_sample": ratio(encoded, calls["fusion.forward"]),
        "fusion.winning_element_share": ratio(counts["fusion.pool_winners"],
                                              counts["fusion.pool_rows"]),
        "tensor.backward_s": s["tensor.backward"],
        "tensor.tape_records_per_sample": ratio(counts["tensor.tape_records"],
                                                calls["tensor.backward"]),
        "training.adamw_step_s": s["training.adamw_step"],
        "training.adamw_steps": calls["training.adamw_step"],
        "training.loss_s": s["training.loss"],
        "training.train_self_s": s["training.train"],
        "seeding.sample_rng_s": s["seeding.sample_rng"],
        "seeding.derive_rng_calls": counts["seeding.derive_rng_calls"],
        "evaluate.predict_s": s["evaluate.predict"],
        "metrics.fold_metrics_s": s["metrics.fold_metrics"],
        "data.load_s": s["data.load"],
        "data.samples_loaded": counts["data.samples_loaded"],
        "checkpoint.load_s": s["checkpoint.load"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "checkpoint.save_s": s["checkpoint.save"],
    }
