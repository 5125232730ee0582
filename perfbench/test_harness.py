"""Tests of the benchmark harness's own logic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mmsets import data as mdata  # noqa: E402


@pytest.fixture
def clock(monkeypatch):
    """A perf_counter that moves only when a test advances it."""
    now = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: now[0])

    def advance(seconds):
        now[0] += seconds
    return advance


def test_self_time_subtracts_child_spans(clock):
    tracer = tracing.Tracer()

    @tracer.span("inner")
    def inner():
        clock(2.0)

    @tracer.span("outer")
    def outer():
        clock(1.0)
        inner()
        inner()
        clock(3.0)

    outer()
    assert tracer.total_s["outer"] == 8.0
    assert tracer.self_s["outer"] == 4.0
    assert tracer.self_s["inner"] == 4.0
    assert tracer.calls["inner"] == 2
    assert sum(tracer.self_s.values()) == tracer.total_s["outer"]


def test_hook_time_leaves_every_layer(clock):
    tracer = tracing.Tracer()

    @tracer.span("child", after=lambda result, args, kwargs: clock(5.0))
    def child():
        clock(1.0)

    @tracer.span("parent")
    def parent():
        child()
        clock(2.0)

    parent()
    assert tracer.self_s["child"] == 1.0
    assert tracer.self_s["parent"] == 2.0
    assert tracer.self_s[tracing.HOOKS] == 5.0
    assert sum(tracer.self_s.values()) == tracer.total_s["parent"]


def test_self_time_survives_an_exception(clock):
    tracer = tracing.Tracer()

    @tracer.span("failing")
    def failing():
        clock(1.5)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        failing()
    assert tracer.self_s["failing"] == 1.5
    assert tracer.parent() is None


def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(ValueError):
        pipeline.percentile(range(19), 0.5)
    assert pipeline.percentile(range(20), 0.5) == 9
    assert pipeline.percentile(range(100), 0.9) == 89
    with pytest.raises(ValueError):
        pipeline.percentile(range(99), 0.9)
    with pytest.raises(ValueError):
        pipeline.percentile(range(1000), 0.999)


def _dataset_bytes(workload, seed, directory):
    mdata.save_dataset(*workloads.generate(workload, seed), directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_datasets(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _dataset_bytes(workload, 3, tmp_path / "a")
    assert first == _dataset_bytes(workload, 3, tmp_path / "b")
    assert first != _dataset_bytes(workload, 4, tmp_path / "c")


def _patched_attributes():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _ in tracing._patches(tracing.Tracer())]


def test_wrappers_are_restored_after_a_traced_run():
    originals = _patched_attributes()
    manifest, samples = workloads.generate(workloads.WORKLOADS["seq-dense"], 0)
    model = workloads.build_model(workloads.WORKLOADS["seq-dense"], manifest, 0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        for sample in samples[:3]:
            model.forward(sample, training=False)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    # max-over-time inside the sequence encoder is not a pooling span
    assert tracer.calls["fusion.forward"] == 3
    assert tracer.calls["fusion.pool"] == 3
    assert tracer.calls["fusion.encode_sequence"] > 0


def test_wrappers_are_restored_when_the_traced_block_raises():
    originals = _patched_attributes()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("stop")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == pipeline.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_read_zero_off_the_workload_path():
    metrics = tracing.layer_metrics(tracing.Tracer())
    assert set(metrics.values()) == {0}
