"""One benchmark run: a workload's inputs through the user's path in mmsets.

The path is the one a library user takes: ``load_dataset_dir`` -> build the
model -> ``train`` -> ``save_checkpoint`` -> ``load_checkpoint`` ->
``evaluate_model`` / ``predict_scores`` -> single-sample ``model.forward``.
One caller in one process issues every call and waits for it (a closed
loop, nothing queues). An untraced run (``--trace 0``) reports the
end-to-end metrics; a traced run (``--trace 1``) repeats a fixed-work cycle
under span timers and reports the per-layer metrics.

Every layer is reached through its module attribute at call time (never a
name bound at import), so the traced run's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from mmsets import checkpoint as mcheckpoint
from mmsets import data as mdata
from mmsets import evaluate as mevaluate
from mmsets import fusion as mfusion
from mmsets import training as mtraining
from mmsets.errors import MMSetsError

# name -> unit; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "infer_samples_per_s": "samples/s",
    "infer_latency_p50_ms": "ms",
    "infer_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "heldout_accuracy": "fraction",
    "fim_planted_share": "fraction",
    "success_share": "fraction",
}
PER_LAYER = {
    name: ("s" if name.endswith("_s") else
           "B" if name == "checkpoint.bytes" else
           "fraction" if name.endswith("_share") else "count")
    for name in [*tracing.layer_metrics(tracing.Tracer()), "trace.overhead_share"]
}

INFERENCE_SHARE = 0.3   # seconds of bulk prediction, and of single forwards, per epoch second
ACCURACY_FLOOR = 0.8
PERMUTATION_SAMPLES = 4
TAIL_SAMPLES = 10       # samples a percentile needs beyond it

TIMING_NOTE = ("timings come only from this process's own perf_counter timers; "
               "no system-wide tracing was used")


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile of ``values``, refused (ValueError) when fewer
    than TAIL_SAMPLES samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < TAIL_SAMPLES:
        raise ValueError(f"p{q * 100:g} of {len(ordered)} samples has only {beyond} "
                         f"beyond it, need {TAIL_SAMPLES}")
    return ordered[rank - 1]


@dataclass
class Ledger:
    """Operations attempted and failed, and the correctness checks run."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {name}", file=sys.stderr)
        self.checks[name] = self.checks.get(name, True) and bool(ok)


@dataclass
class Inputs:
    data_dir: Path
    manifest: object
    train_set: list
    heldout: list


def prepare(workload, seed: int, work: Path) -> Inputs:
    """Generate the seed's dataset, write it in the documented format and
    load it back the way a user would."""
    manifest, samples = workloads.generate(workload, seed)
    data_dir = work / "data"
    mdata.save_dataset(manifest, samples, data_dir)
    manifest, samples = mdata.load_dataset_dir(data_dir)
    n = workloads.TRAIN_SAMPLES
    return Inputs(data_dir, manifest, samples[:n], samples[n:])


def train_once(workload, inputs: Inputs, ledger: Ledger, model_seed: int = 0,
               between_epochs=None):
    """(model, history, seconds of each epoch) of one training from scratch.

    ``between_epochs(epoch_seconds)`` runs after each epoch, through the
    public ``on_epoch`` hook; its own time is not part of any epoch.
    """
    model = workloads.build_model(workload, inputs.manifest, model_seed)
    epoch_seconds = []
    epoch_start = time.perf_counter()

    def on_epoch(record):
        nonlocal epoch_start
        epoch_seconds.append(time.perf_counter() - epoch_start)
        if between_epochs is not None:
            between_epochs(epoch_seconds[-1])
        epoch_start = time.perf_counter()

    history = mtraining.train(model, inputs.train_set,
                              workloads.train_config(model_seed),
                              task=inputs.manifest.task, on_epoch=on_epoch)
    ledger.ops(len(inputs.train_set) * len(history))
    ledger.check("losses finite", all(math.isfinite(r["loss"]) for r in history))
    return model, history, epoch_seconds


def setup_once(workload, inputs: Inputs, ckpt: Path):
    """Seconds to load and validate the dataset, build the model and load
    the checkpoint the predictions use; plus the loaded model."""
    start = time.perf_counter()
    manifest, _ = mdata.load_dataset_dir(inputs.data_dir)
    workloads.build_model(workload, manifest, 0)
    loaded, _ = mcheckpoint.load_checkpoint(ckpt)
    return time.perf_counter() - start, loaded


def _reversed_instances(sample):
    return mdata.Sample(sample.sample_id, list(reversed(sample.instances)),
                        sample.labels, sample.group)


def _without(sample, modality_id):
    return mdata.Sample(sample.sample_id,
                        [i for i in sample.instances if i.modality_id != modality_id],
                        sample.labels, sample.group)


def occlusion_planted_share(model, samples) -> float:
    """Mean share of the planted modality in per-sample occlusion importance:
    how far the logit margin moves when all of one modality's instances are
    removed, normalised over modalities. Stands in for the FIM on the concat
    model, which records no per-dimension winners."""
    planted = model.modality_ids.index(workloads.PLANTED)
    shares = []
    for sample in samples:
        logits, _ = model.forward(sample, training=False)
        margin = logits.data[0, 1] - logits.data[0, 0]
        moved = []
        for mid in model.modality_ids:
            occluded, _ = model.forward(_without(sample, mid), training=False)
            moved.append(abs(margin - (occluded.data[0, 1] - occluded.data[0, 0])))
        total = sum(moved)
        shares.append(moved[planted] / total if total else 1.0 / len(moved))
    return float(np.mean(shares))


def check_predictions(workload, model, loaded, inputs: Inputs, ledger: Ledger):
    """Correctness gate on the predictions; returns (accuracy, planted share)."""
    heldout = inputs.heldout
    metrics, records, scores = mevaluate.evaluate_model(loaded, heldout,
                                                        inputs.manifest.task)
    reference, _ = mevaluate.predict_scores(model, heldout)
    ledger.ops(2 * len(heldout))
    ledger.check("checkpoint round trip gives bit-identical predictions",
                 scores.tobytes() == reference.tobytes())
    accuracy = metrics["overall_accuracy"]
    ledger.check(f"held-out accuracy above {ACCURACY_FLOOR}", accuracy > ACCURACY_FLOOR)
    if workload.model == "fusion":
        share = mfusion.aggregate_importance(records)[workloads.PLANTED]
        # set models only: the fixed-slot concat model is order-dependent by design
        for sample in heldout[:PERMUTATION_SAMPLES]:
            logits, record = loaded.forward(sample, training=False)
            rev_logits, rev_record = loaded.forward(_reversed_instances(sample),
                                                    training=False)
            ledger.ops(2)
            ledger.check("reversed instance order gives bit-identical logits and counts",
                         logits.data.tobytes() == rev_logits.data.tobytes()
                         and record.counts == rev_record.counts)
    else:
        share = occlusion_planted_share(loaded, heldout)
        ledger.ops(len(heldout) * (1 + len(loaded.modality_ids)))
    return accuracy, share


def _repeat_within(seconds: float, fn, at_least: int = 1):
    """Call ``fn`` at least ``at_least`` times, then again while the next
    call, predicted from the last one, still ends within ``seconds`` of the
    start."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        now = time.perf_counter()
        if len(results) >= at_least and now + (now - t0) > start + seconds:
            return results


def measure(workload, inputs: Inputs, seconds: float, work: Path, ledger: Ledger,
            fingerprint: dict) -> dict:
    """The untraced run: every end-to-end metric.

    The run is a series of rounds, each one training from scratch and a
    checkpoint save. After every epoch, through ``train``'s ``on_epoch``
    hook, it times one set-up from the latest checkpoint (at first, the
    untrained model's) and then, with the model that set-up loaded, bulk
    prediction and single-sample forwards for INFERENCE_SHARE x the epoch's
    time each. A shared virtual machine's speed can flip between a fast and
    a slow state about every second, so every metric is sampled in many
    short windows spread over the whole run, and throughput is total work
    over total time, which moves in proportion to the share of slow windows
    rather than jumping between the two states as a median of per-window
    rates would.

    The first ``workload.quality_models`` rounds train with model seeds 0,
    1, ... and the quality metrics average their held-out results, because
    one model's importance shares move with the data it saw. Later rounds
    retrain those seeds and must reproduce their loss histories.
    """
    heldout = inputs.heldout
    ckpt = work / "checkpoint.json"
    mcheckpoint.save_checkpoint(workloads.build_model(workload, inputs.manifest, 0), ckpt)
    epoch_seconds, setup_times, predict_seconds, latencies = [], [], [], []
    histories, accuracies, shares = [], [], []
    model_seeds = itertools.cycle(range(workload.quality_models))

    def predict(loaded):
        start = time.perf_counter()
        mevaluate.predict_scores(loaded, heldout)
        predict_seconds.append(time.perf_counter() - start)

    def single_forwards(loaded, seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            sample = heldout[len(latencies) % len(heldout)]
            start = time.perf_counter()
            loaded.forward(sample, training=False)
            latencies.append(time.perf_counter() - start)

    def inference_slice(seconds_of_epoch):
        seconds_taken, loaded = setup_once(workload, inputs, ckpt)
        setup_times.append(seconds_taken)
        _repeat_within(INFERENCE_SHARE * seconds_of_epoch, lambda: predict(loaded))
        single_forwards(loaded, INFERENCE_SHARE * seconds_of_epoch)

    def one_round():
        model_seed = next(model_seeds)
        model, history, seconds = train_once(workload, inputs, ledger, model_seed,
                                             between_epochs=inference_slice)
        epoch_seconds.extend(seconds)
        mcheckpoint.save_checkpoint(model, ckpt)
        if len(histories) < workload.quality_models:
            histories.append(history)
            loaded, _ = mcheckpoint.load_checkpoint(ckpt)
            accuracy, share = check_predictions(workload, model, loaded, inputs, ledger)
            accuracies.append(accuracy)
            shares.append(share)
            if model_seed == 0:
                fingerprint["checkpoint_sha256"] = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        else:
            ledger.check("retraining gives an identical loss history",
                         history == histories[model_seed])

    rounds = len(_repeat_within(seconds, one_round, at_least=workload.quality_models))
    ledger.ops(len(predict_seconds) * len(heldout) + len(latencies))
    fingerprint.update(final_epoch_losses=[h[-1]["loss"] for h in histories],
                       rounds=rounds, epochs_timed=len(epoch_seconds),
                       setups=len(setup_times), predict_passes=len(predict_seconds),
                       latency_samples=len(latencies))
    return {
        "setup_s": statistics.median(setup_times),
        "train_samples_per_s": len(inputs.train_set) * len(epoch_seconds) / sum(epoch_seconds),
        "infer_samples_per_s": len(heldout) * len(predict_seconds) / sum(predict_seconds),
        "infer_latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "infer_latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "heldout_accuracy": statistics.fmean(accuracies),
        "fim_planted_share": statistics.fmean(shares),
    }


def traced_cycle(workload, inputs: Inputs, work: Path, ledger: Ledger,
                 fingerprint: dict) -> dict:
    """One fixed-work pass of the whole path under span timers, preceded by
    the same training untraced to price the tracing."""
    start = time.perf_counter()
    train_once(workload, inputs, ledger)
    untraced = time.perf_counter() - start

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        start = time.perf_counter()
        model, history, _ = train_once(workload, inputs, ledger)
        traced = time.perf_counter() - start
        layers_in_training = sum(tracer.self_s.values())
        ckpt = work / "checkpoint.json"
        mcheckpoint.save_checkpoint(model, ckpt)
        _, loaded = setup_once(workload, inputs, ckpt)
        check_predictions(workload, model, loaded, inputs, ledger)
        for sample in inputs.heldout:
            loaded.forward(sample, training=False)
        ledger.ops(len(inputs.heldout))
    ledger.check("layer self times sum to within the train() wall time",
                 layers_in_training <= traced)
    fingerprint.update(final_epoch_loss=history[-1]["loss"],
                       checkpoint_sha256=hashlib.sha256(ckpt.read_bytes()).hexdigest())
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    return metrics


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "note": TIMING_NOTE,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        print(f"error: unknown workload {workload_name!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ledger = Ledger()
    fingerprint: dict = {}
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=work_root))
    units = PER_LAYER if trace else END_TO_END
    metrics: dict = {}
    try:
        inputs = prepare(workload, seed, work)
        if trace:
            cycles = _repeat_within(seconds, lambda: traced_cycle(
                workload, inputs, work, ledger, fingerprint))
            metrics = {name: statistics.median(c[name] for c in cycles) for name in PER_LAYER}
            fingerprint["traced_cycles"] = len(cycles)
        else:
            metrics = measure(workload, inputs, seconds, work, ledger, fingerprint)
    except (MMSetsError, ValueError) as exc:
        # a failed operation ends the run; it counts and the run exits non-zero
        print(f"OPERATION FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        ledger.attempted += 1
        ledger.failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # left in place while another run uses it

    if not trace:
        metrics["success_share"] = 1.0 - ledger.failed / max(ledger.attempted, 1)
    correct = ledger.failed == 0 and set(metrics) == set(units)
    print(f"workload {workload_name}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}  one closed-loop caller")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("checks " + json.dumps(ledger.checks, sort_keys=True))
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1
