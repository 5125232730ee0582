import base64
import json
from dataclasses import replace

import numpy as np
import pytest

from mmsets.checkpoint import load_checkpoint, save_checkpoint
from mmsets.errors import DataError
from mmsets.fusion import ConcatModel, FusionModel
from helpers import mixed_specs, random_sample


def test_fusion_roundtrip_bit_exact(tmp_path):
    specs = mixed_specs()
    model = FusionModel(specs, num_classes=3, dim=8, pool="min", embed_dim=4,
                        num_filters=3, predictor_hidden=(8,), seed=13)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, config_hash="abc123")
    loaded, config_hash = load_checkpoint(path)
    assert config_hash == "abc123"
    assert isinstance(loaded, FusionModel)
    assert loaded.pool == "min"
    original = model.named_parameters()
    restored = loaded.named_parameters()
    assert set(original) == set(restored)
    for name in original:
        assert np.array_equal(original[name].data, restored[name].data), name
    # identical forward pass
    sample = random_sample(np.random.default_rng(0), specs, num_classes=3)
    a, _ = model.forward(sample)
    b, _ = loaded.forward(sample)
    assert np.array_equal(a.data, b.data)


def test_concat_roundtrip(tmp_path):
    specs = mixed_specs(max_instances=2)
    model = ConcatModel(specs, num_classes=2, dim=4, embed_dim=4, num_filters=3,
                        seed=5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    assert isinstance(loaded, ConcatModel)
    assert loaded.slots == model.slots
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, loaded.named_parameters()[name].data)


def test_save_bytes_deterministic(tmp_path):
    specs = mixed_specs()
    model = FusionModel(specs, num_classes=2, dim=8, embed_dim=4, num_filters=3)
    save_checkpoint(model, tmp_path / "a.json", "h")
    save_checkpoint(model, tmp_path / "b.json", "h")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "nope.json")


def test_corrupt_file(tmp_path):
    (tmp_path / "bad.json").write_text("{")
    with pytest.raises(DataError, match="JSON"):
        load_checkpoint(tmp_path / "bad.json")


def _drop_dim(obj):
    del obj["dim"]
    return obj


def _truncate_first_param(obj):
    entry = next(iter(obj["params"].values()))
    entry["data"] = entry["data"][:-3]
    return obj


def _first_param_a_string(obj):
    obj["params"][next(iter(obj["params"]))] = "x"
    return obj


def _first_param_set_to(value):
    def corrupt(obj):
        entry = next(iter(obj["params"].values()))
        data = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        data[-1] = value
        entry["data"] = base64.b64encode(data.tobytes()).decode("ascii")
        return obj
    return corrupt


def _swap_slots(obj):
    # the slot total, and with it every parameter shape, stays the same
    (a, na), (b, nb) = obj["slots"].items()
    obj["slots"] = {a: nb, b: na}
    return obj


def _fusion():
    return FusionModel(mixed_specs(), num_classes=2, dim=4, embed_dim=4, num_filters=3)


def _concat_with_uneven_slots():
    img, obj = mixed_specs()
    specs = [replace(img, max_instances=1), replace(obj, max_instances=3)]
    return ConcatModel(specs, num_classes=2, dim=4, embed_dim=4, num_filters=3)


@pytest.mark.parametrize("build,corrupt,match", [
    (_fusion, _drop_dim, "missing field 'dim'"),
    (_fusion, _truncate_first_param, "malformed"),
    (_fusion, lambda obj: [1, 2], "JSON object"),
    (_fusion, lambda obj: {**obj, "dropout_p": 1.5}, "dropout_p"),
    (_fusion, lambda obj: {**obj, "kernel_widths": []}, "kernel_widths"),
    (_fusion, lambda obj: {**obj, "kernel_widths": [2, 2]}, "kernel_widths"),
    (_concat_with_uneven_slots, _swap_slots, "slots"),
    (_fusion, lambda obj: {**obj, "specs": 0.5}, "specs must be a list of modality objects"),
    (_fusion, _first_param_a_string, r"parameter '.+' needs a list 'shape' and a string 'data'"),
    (_fusion, lambda obj: {**obj, "params": 5}, "params must be an object"),
    (_fusion, lambda obj: {**obj, "params": None}, "params must be an object"),
    (_fusion, lambda obj: {**obj, "params": list(obj["params"])}, "params must be an object"),
    (_fusion, _first_param_set_to(np.nan), r"parameter '.+' holds a value that is not finite"),
    (_fusion, _first_param_set_to(-np.inf), r"parameter '.+' holds a value that is not finite"),
], ids=["missing-field", "truncated-base64", "not-an-object", "dropout-out-of-range",
        "no-kernel-widths", "repeated-kernel-widths", "concat-slots-swapped", "specs-a-float", "param-a-string",
        "params-an-int", "params-null", "params-a-list", "param-nan", "param-inf"])
def test_malformed_checkpoint_is_data_error(tmp_path, build, corrupt, match):
    path = tmp_path / "ckpt.json"
    save_checkpoint(build(), path)
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)
