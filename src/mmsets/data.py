"""Dataset format for ragged multi-modal samples, plus a synthetic generator.

On disk a dataset is a ``manifest.json`` describing the modalities, classes
and task, and a ``samples.jsonl`` with one JSON object per sample. A sample
may carry any number of instances per modality, including none; missing
modalities are simply absent, never padded.

The synthetic generator plants the class signal in exactly one modality
(class-conditional Gaussians with means separated by at least four noise
standard deviations) while every other modality is pure noise. That gives
a ground truth for both classification accuracy and feature-importance
recovery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, check_int, check_real
from .fusion import DENSE, ModalitySpec

FORMAT_VERSION = 1
TASKS = ("single_label", "multi_label")


@dataclass
class ModalityInstance:
    """One occurrence of one modality inside a sample."""

    modality_id: str
    payload: np.ndarray


@dataclass
class Sample:
    """An unordered collection of modality instances plus a label vector."""

    sample_id: str
    instances: list[ModalityInstance]
    labels: np.ndarray
    group: str | None = None


@dataclass
class DatasetManifest:
    modalities: list[ModalitySpec]
    class_names: list[str]
    task: str
    sample_count: int
    format_version: int = FORMAT_VERSION

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "task": self.task,
            "class_names": list(self.class_names),
            "sample_count": self.sample_count,
            "modalities": [s.to_dict() for s in self.modalities],
        }


def _manifest_from_dict(obj: dict, origin: str) -> DatasetManifest:
    def fail(msg, fld):
        raise DataError(msg, field=f"{origin}:{fld}")

    for key in ("format_version", "task", "class_names", "sample_count", "modalities"):
        if key not in obj:
            fail(f"missing key {key!r}", key)
    if obj["format_version"] != FORMAT_VERSION:
        fail(f"unsupported format_version {obj['format_version']!r}", "format_version")
    if obj["task"] not in TASKS:
        fail(f"task must be one of {TASKS}, got {obj['task']!r}", "task")
    names = obj["class_names"]
    if (not isinstance(names, list) or not names
            or not all(isinstance(name, str) for name in names) or len(set(names)) != len(names)):
        fail("class_names must be a nonempty list of unique strings", "class_names")
    if not isinstance(obj["modalities"], list):
        fail("modalities must be a list of modality objects", "modalities")
    specs = []
    for i, spec_obj in enumerate(obj["modalities"]):
        try:
            specs.append(ModalitySpec.from_dict(spec_obj))
        except (KeyError, TypeError, ValueError) as exc:
            fail(str(exc), f"modalities[{i}]")
    ids = [s.modality_id for s in specs]
    if len(set(ids)) != len(ids):
        fail("duplicate modality_id", "modalities")
    count = obj["sample_count"]
    if type(count) is not int or count < 0:
        fail("sample_count must be a non-negative integer", "sample_count")
    return DatasetManifest(modalities=specs, class_names=list(names),
                           task=obj["task"], sample_count=count)


def _parse_payload(raw, spec: ModalitySpec, sample_id: str, fld: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise DataError("payload must be a nonempty list", sample_id, fld)
    if spec.kind == DENSE:
        try:
            arr = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError("dense payload must contain numbers", sample_id, fld)
        if arr.ndim != 1 or arr.shape[0] != spec.input_dim:
            raise DataError(
                f"dense payload must have length {spec.input_dim}, got {len(raw)}",
                sample_id, fld)
        if not np.all(np.isfinite(arr)):
            raise DataError("dense payload must be finite", sample_id, fld)
        return arr
    if any(not isinstance(v, int) or isinstance(v, bool) for v in raw):
        raise DataError("index payload must contain integers", sample_id, fld)
    arr = np.asarray(raw, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= spec.vocab_size:
        raise DataError(
            f"index out of vocabulary range [0, {spec.vocab_size})", sample_id, fld)
    return arr


def _parse_sample(obj: dict, manifest: DatasetManifest, line_no: int) -> Sample:
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: sample must be a JSON object")
    sample_id = obj.get("sample_id")
    if not isinstance(sample_id, str) or not sample_id:
        raise DataError(f"line {line_no}: sample_id must be a nonempty string")
    labels = obj.get("labels")
    C = manifest.num_classes
    if (not isinstance(labels, list) or len(labels) != C
            or not all(type(v) is int and v in (0, 1) for v in labels)):
        raise DataError(f"labels must be a list of {C} integers, each 0 or 1",
                        sample_id, "labels")
    if manifest.task == "single_label" and sum(labels) != 1:
        raise DataError("single_label sample must have exactly one positive label",
                        sample_id, "labels")
    group = obj.get("group")
    if group is not None and not isinstance(group, str):
        raise DataError("group must be a string when present", sample_id, "group")
    raw_instances = obj.get("instances")
    if not isinstance(raw_instances, list) or not raw_instances:
        raise DataError("instances must be a nonempty list", sample_id, "instances")
    spec_by_id = {s.modality_id: s for s in manifest.modalities}
    instances = []
    for i, inst in enumerate(raw_instances):
        fld = f"instances[{i}]"
        if not isinstance(inst, dict) or "modality" not in inst or "payload" not in inst:
            raise DataError("instance needs 'modality' and 'payload'", sample_id, fld)
        mid = inst["modality"]
        if mid not in spec_by_id:
            raise DataError(f"unknown modality {mid!r}", sample_id, fld)
        payload = _parse_payload(inst["payload"], spec_by_id[mid], sample_id,
                                 f"{fld}.payload")
        instances.append(ModalityInstance(mid, payload))
    return Sample(sample_id=sample_id, instances=instances,
                  labels=np.asarray(labels, dtype=np.int64), group=group)


def load_dataset(manifest_path, samples_path) -> tuple[DatasetManifest, list[Sample]]:
    """Load and fully validate a dataset.

    Every malformed record raises DataError naming the sample and field;
    nothing is skipped silently.
    """
    manifest_path = Path(manifest_path)
    samples_path = Path(samples_path)
    try:
        manifest_obj = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise DataError(f"manifest not found: {manifest_path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}", field=str(manifest_path))
    manifest = _manifest_from_dict(manifest_obj, manifest_path.name)

    samples = []
    seen: set[str] = set()
    try:
        lines = samples_path.read_text().splitlines()
    except FileNotFoundError:
        raise DataError(f"samples file not found: {samples_path}")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {line_no} is not valid JSON: {exc}",
                            field=str(samples_path))
        sample = _parse_sample(obj, manifest, line_no)
        if sample.sample_id in seen:
            raise DataError("duplicate sample_id", sample.sample_id)
        seen.add(sample.sample_id)
        samples.append(sample)
    if len(samples) != manifest.sample_count:
        raise DataError(
            f"manifest declares {manifest.sample_count} samples, file has {len(samples)}")
    return manifest, samples


def load_dataset_dir(directory) -> tuple[DatasetManifest, list[Sample]]:
    d = Path(directory)
    return load_dataset(d / "manifest.json", d / "samples.jsonl")


def _sample_to_obj(sample: Sample) -> dict:
    obj = {
        "sample_id": sample.sample_id,
        "labels": [int(v) for v in sample.labels],
        "instances": [
            {"modality": inst.modality_id,
             "payload": [float(v) for v in inst.payload]
             if np.issubdtype(inst.payload.dtype, np.floating)
             else [int(v) for v in inst.payload]}
            for inst in sample.instances
        ],
    }
    if sample.group is not None:
        obj["group"] = sample.group
    return obj


def save_dataset(manifest: DatasetManifest, samples, directory) -> None:
    """Write manifest.json and samples.jsonl; bytes are deterministic."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n")
    with open(d / "samples.jsonl", "w") as fh:
        for sample in samples:
            fh.write(json.dumps(_sample_to_obj(sample), sort_keys=True,
                                separators=(",", ":")) + "\n")


@dataclass
class SyntheticConfig:
    """Knobs for the planted-importance generator.

    ``informative_modality`` is the only modality whose instances carry the
    class signal; it is never missing. ``missing_rates`` applies per
    modality (a single float is broadcast over the noise modalities).
    """

    num_modalities: int = 4
    feature_dims: tuple[int, ...] | None = None
    min_instances: int = 1
    max_instances: int = 3
    informative_modality: str = "m0"
    missing_rates: object = 0.0
    noise_scale: float = 0.25
    num_classes: int = 2
    num_samples: int = 1000
    seed: int = 0
    task: str = "single_label"

    def __post_init__(self):
        check_int("num_modalities", self.num_modalities)
        if self.feature_dims is None:
            self.feature_dims = (8,) * self.num_modalities
        if not isinstance(self.feature_dims, (list, tuple)):
            raise ValueError(f"feature_dims must be a list of integers, got {self.feature_dims!r}")
        for i, v in enumerate(self.feature_dims):
            check_int(f"feature_dims[{i}]", v)
        self.feature_dims = tuple(int(v) for v in self.feature_dims)
        if len(self.feature_dims) != self.num_modalities:
            raise ValueError("feature_dims must have one entry per modality")
        check_int("min_instances", self.min_instances)
        check_int("max_instances", self.max_instances, self.min_instances)
        ids = self.modality_ids()
        if self.informative_modality not in ids:
            raise ValueError(
                f"informative_modality {self.informative_modality!r} not in {ids}")
        rates = self.missing_rates
        if isinstance(rates, (list, tuple)):
            for i, v in enumerate(rates):
                check_real(f"missing_rates[{i}]", v, 0.0, 1.0)
            self.missing_rates = tuple(float(v) for v in rates)
        else:
            check_real("missing_rates", rates, 0.0, 1.0)
            self.missing_rates = tuple(
                0.0 if mid == self.informative_modality else float(rates) for mid in ids)
        if len(self.missing_rates) != self.num_modalities:
            raise ValueError("missing_rates must have one entry per modality")
        if self.missing_rates[ids.index(self.informative_modality)] != 0.0:
            raise ValueError("the informative modality must never be missing")
        check_real("noise_scale", self.noise_scale, 0.0)
        check_int("num_classes", self.num_classes, 2)
        check_int("num_samples", self.num_samples)
        check_int("seed", self.seed, 0)
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        bits = max(1, math.ceil(math.log2(self.num_classes)))
        info_dim = self.feature_dims[ids.index(self.informative_modality)]
        if info_dim < bits:
            raise ValueError(
                f"informative modality needs dim >= {bits} to separate "
                f"{self.num_classes} classes")

    def modality_ids(self) -> tuple[str, ...]:
        return tuple(f"m{i}" for i in range(self.num_modalities))


def _class_means(cfg: SyntheticConfig) -> np.ndarray:
    """Sign-coded means: classes differ in at least one coordinate by 2*delta,
    with delta >= 2*noise_scale, so optimal accuracy approaches 1."""
    ids = cfg.modality_ids()
    dim = cfg.feature_dims[ids.index(cfg.informative_modality)]
    bits = max(1, math.ceil(math.log2(cfg.num_classes)))
    delta = max(1.0, 2.0 * cfg.noise_scale)
    means = np.zeros((cfg.num_classes, dim))
    for c in range(cfg.num_classes):
        for j in range(bits):
            means[c, j] = delta if (c >> j) & 1 else -delta
    return means


def generate_synthetic(cfg: SyntheticConfig) -> tuple[DatasetManifest, list[Sample]]:
    """Build a dataset with the class signal planted in one modality.

    Labels are exactly balanced (single_label) or independently ~0.5 per
    class with at least one active (multi_label; the informative modality
    then contributes instances drawn from each active class's Gaussian).
    Identical configs regenerate byte-identical datasets.
    """
    rng = np.random.default_rng(cfg.seed)
    ids = cfg.modality_ids()
    means = _class_means(cfg)
    info_idx = ids.index(cfg.informative_modality)

    if cfg.task == "single_label":
        assigned = np.array([i % cfg.num_classes for i in range(cfg.num_samples)])
        rng.shuffle(assigned)

    samples = []
    for i in range(cfg.num_samples):
        labels = np.zeros(cfg.num_classes, dtype=np.int64)
        if cfg.task == "single_label":
            active = [int(assigned[i])]
        else:
            mask = rng.random(cfg.num_classes) < 0.5
            if not mask.any():
                mask[rng.integers(cfg.num_classes)] = True
            active = [c for c in range(cfg.num_classes) if mask[c]]
        labels[active] = 1

        instances = []
        for j, mid in enumerate(ids):
            dim = cfg.feature_dims[j]
            if j == info_idx:
                for c in active:
                    count = int(rng.integers(cfg.min_instances, cfg.max_instances + 1))
                    for _ in range(count):
                        vec = means[c] + cfg.noise_scale * rng.standard_normal(dim)
                        instances.append(ModalityInstance(mid, vec))
            else:
                if rng.random() < cfg.missing_rates[j]:
                    continue
                count = int(rng.integers(cfg.min_instances, cfg.max_instances + 1))
                for _ in range(count):
                    instances.append(ModalityInstance(mid, rng.standard_normal(dim)))
        samples.append(Sample(sample_id=f"s{i:05d}", instances=instances, labels=labels))

    specs = [ModalitySpec(modality_id=mid, kind=DENSE, input_dim=cfg.feature_dims[j])
             for j, mid in enumerate(ids)]
    manifest = DatasetManifest(modalities=specs,
                               class_names=[f"class{c}" for c in range(cfg.num_classes)],
                               task=cfg.task, sample_count=cfg.num_samples)
    return manifest, samples
