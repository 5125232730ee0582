"""Versioned JSON checkpoints with bit-exact parameter round-trips.

Parameter arrays are stored as base64 of their little-endian float64 bytes,
and the container is dumped with sorted keys, so saving the same model twice
produces byte-identical files.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import DataError
from .fusion import ConcatModel, FusionModel, ModalitySpec, ModelConfig

CHECKPOINT_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(obj["shape"])


def save_checkpoint(model, path, config_hash: str = "") -> None:
    """Serialize a fusion or concat model with all parameters."""
    if isinstance(model, FusionModel):
        kind = "fusion"
        extra = {"pool": model.pool}
    elif isinstance(model, ConcatModel):
        kind = "concat"
        extra = {"slots": model.slots}
    else:
        raise TypeError(f"cannot checkpoint object of type {type(model).__name__}")
    obj = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "model_kind": kind,
        "config_hash": config_hash,
        "specs": [s.to_dict() for s in model.specs],
        "num_classes": model.num_classes,
        **asdict(model.config),
        "params": {name: _encode_array(p.data)
                   for name, p in model.named_parameters().items()},
        **extra,
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path):
    """Rebuild the model and restore its parameters bit-exactly; anything
    malformed, missing or out of range raises DataError."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint is not valid JSON: {exc}", field=str(path))
    if not isinstance(obj, dict):
        raise DataError("checkpoint must hold a JSON object", field=str(path))
    if obj.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint_version {obj.get('checkpoint_version')!r}")
    try:
        return _restore(obj)
    except KeyError as exc:
        raise DataError(f"checkpoint is missing field {exc}", field=str(path))
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint: {exc}", field=str(path))


def _restore(obj: dict):
    specs = [ModalitySpec.from_dict(d) for d in obj["specs"]]
    config = {f.name: obj[f.name] for f in fields(ModelConfig)}
    kind = obj.get("model_kind")
    if kind == "fusion":
        model = FusionModel(specs, obj["num_classes"], pool=obj["pool"], **config)
    elif kind == "concat":
        model = ConcatModel(specs, obj["num_classes"], **config)
        if obj["slots"] != model.slots:
            raise DataError(f"slots {obj['slots']!r} differ from max_instances {model.slots!r}")
    else:
        raise DataError(f"unknown model_kind {kind!r}")
    params = model.named_parameters()
    stored = obj["params"]
    if set(params) != set(stored):
        missing = set(params) ^ set(stored)
        raise DataError(f"checkpoint parameters do not match the model: {sorted(missing)}")
    for name, p in params.items():
        arr = _decode_array(stored[name])
        if arr.shape != p.data.shape:
            raise DataError(
                f"parameter {name!r} has shape {arr.shape}, expected {p.data.shape}")
        p.data = np.ascontiguousarray(arr)
    return model, obj["config_hash"]
