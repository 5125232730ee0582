import json

import numpy as np
import pytest

from mmsets.data import (DatasetManifest, SyntheticConfig, generate_synthetic,
                         load_dataset, load_dataset_dir, save_dataset)
from mmsets.errors import DataError
from mmsets.fusion import ModalitySpec


def small_manifest():
    return DatasetManifest(
        modalities=[ModalitySpec("img", "dense", input_dim=3),
                    ModalitySpec("obj", "index_sequence", vocab_size=5)],
        class_names=["neg", "pos"], task="single_label", sample_count=1)


def write_dataset(tmp_path, manifest_obj, lines):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest_obj))
    (tmp_path / "samples.jsonl").write_text("\n".join(lines) + "\n")
    return tmp_path / "manifest.json", tmp_path / "samples.jsonl"


def sample_line(**overrides):
    obj = {"sample_id": "s1", "labels": [1, 0],
           "instances": [{"modality": "img", "payload": [0.5, -1.0, 2.0]}]}
    obj.update(overrides)
    return json.dumps(obj)


class TestLoader:
    def test_missing_modality_is_legal(self, tmp_path):
        # the sample has no "obj" instances and loads cleanly
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [sample_line()])
        manifest, samples = load_dataset(*paths)
        assert len(samples) == 1
        assert [i.modality_id for i in samples[0].instances] == ["img"]

    def test_wrong_dense_length_names_sample(self, tmp_path):
        bad = sample_line(instances=[{"modality": "img", "payload": [1.0, 2.0]}])
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
        with pytest.raises(DataError, match="s1.*length 3"):
            load_dataset(*paths)

    def test_unknown_modality_rejected(self, tmp_path):
        bad = sample_line(instances=[{"modality": "audio", "payload": [1.0]}])
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
        with pytest.raises(DataError, match="audio"):
            load_dataset(*paths)

    def test_duplicate_sample_id_rejected(self, tmp_path):
        m = small_manifest()
        m.sample_count = 2
        paths = write_dataset(tmp_path, m.to_dict(), [sample_line(), sample_line()])
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(*paths)

    def test_index_out_of_vocab_rejected(self, tmp_path):
        bad = sample_line(instances=[{"modality": "obj", "payload": [5]}])
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
        with pytest.raises(DataError, match="vocabulary"):
            load_dataset(*paths)

    def test_single_label_needs_exactly_one_positive(self, tmp_path):
        bad = sample_line(labels=[1, 1])
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
        with pytest.raises(DataError, match="exactly one"):
            load_dataset(*paths)

    def test_nonfinite_payload_rejected(self, tmp_path):
        bad = sample_line(instances=[{"modality": "img",
                                      "payload": [1.0, float("inf"), 0.0]}])
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
        with pytest.raises(DataError, match="finite"):
            load_dataset(*paths)

    def test_empty_instances_rejected(self, tmp_path):
        bad = sample_line(instances=[])
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
        with pytest.raises(DataError, match="instances"):
            load_dataset(*paths)

    def test_sample_count_mismatch_rejected(self, tmp_path):
        m = small_manifest()
        m.sample_count = 3
        paths = write_dataset(tmp_path, m.to_dict(), [sample_line()])
        with pytest.raises(DataError, match="declares 3"):
            load_dataset(*paths)

    def test_malformed_json_line_is_structured_error(self, tmp_path):
        paths = write_dataset(tmp_path, small_manifest().to_dict(),
                              [sample_line(), "{not json"])
        with pytest.raises(DataError, match="line 2"):
            load_dataset(*paths)

    def test_malformed_manifest_field(self, tmp_path):
        obj = small_manifest().to_dict()
        obj["task"] = "ranking"
        paths = write_dataset(tmp_path, obj, [sample_line()])
        with pytest.raises(DataError, match="task"):
            load_dataset(*paths)

    @pytest.mark.parametrize("field,value", [("input_dim", 8.5), ("input_dim", True),
                                             ("max_instances", 2.0)])
    def test_manifest_spec_integers_checked(self, tmp_path, field, value):
        obj = small_manifest().to_dict()
        obj["modalities"][0][field] = value
        paths = write_dataset(tmp_path, obj, [sample_line()])
        with pytest.raises(DataError, match=rf"modalities\[0\].*{field}") as info:
            load_dataset(*paths)
        assert info.value.sample_id is None  # not blamed on a sample

    @pytest.mark.parametrize("field,value", [("modalities", 5), ("class_names", [[1], [2]]),
                                             ("class_names", [1, 2]), ("sample_count", True)],
                             ids=["modalities-int", "class-names-lists", "class-names-ints",
                                  "sample-count-bool"])
    def test_manifest_field_types_checked(self, tmp_path, field, value):
        obj = small_manifest().to_dict()
        obj[field] = value
        paths = write_dataset(tmp_path, obj, [sample_line()])
        with pytest.raises(DataError, match=rf"manifest.json:{field}"):
            load_dataset(*paths)

    @pytest.mark.parametrize("labels", [[True, False], [1.0, 0.0]])
    def test_labels_must_be_integer_zero_one(self, tmp_path, labels):
        paths = write_dataset(tmp_path, small_manifest().to_dict(),
                              [sample_line(labels=labels)])
        with pytest.raises(DataError, match="s1.*labels"):
            load_dataset(*paths)

    def test_group_field_roundtrip(self, tmp_path):
        line = sample_line(group="equiv")
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [line])
        _, samples = load_dataset(*paths)
        assert samples[0].group == "equiv"

    def test_validation_is_total_over_fuzzed_lines(self, tmp_path):
        # every malformed record must raise DataError, never crash or skip
        cases = [
            "null", "[]", "42",
            json.dumps({"labels": [1, 0], "instances": []}),
            sample_line(sample_id=""),
            sample_line(labels=[1]),
            sample_line(labels=[1, 2]),
            sample_line(instances=[{"modality": "img"}]),
            sample_line(instances=[{"payload": [1.0, 2.0, 3.0]}]),
            sample_line(instances=[{"modality": "img", "payload": "abc"}]),
            sample_line(instances=[{"modality": "img", "payload": []}]),
            sample_line(instances=[{"modality": "obj", "payload": [1.5]}]),
            sample_line(instances=[{"modality": "obj", "payload": [True]}]),
            sample_line(group=7),
        ]
        for bad in cases:
            paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
            with pytest.raises(DataError):
                load_dataset(*paths)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cfg = SyntheticConfig(num_modalities=3, num_samples=40, seed=11,
                              missing_rates=0.3, informative_modality="m1")
        manifest, samples = generate_synthetic(cfg)
        save_dataset(manifest, samples, tmp_path)
        manifest2, samples2 = load_dataset_dir(tmp_path)
        assert manifest2.to_dict() == manifest.to_dict()
        assert len(samples2) == len(samples)
        for a, b in zip(samples, samples2):
            assert a.sample_id == b.sample_id
            assert np.array_equal(a.labels, b.labels)
            assert len(a.instances) == len(b.instances)
            for ia, ib in zip(a.instances, b.instances):
                assert ia.modality_id == ib.modality_id
                assert np.array_equal(ia.payload, ib.payload)

    def test_save_bytes_deterministic(self, tmp_path):
        manifest, samples = generate_synthetic(SyntheticConfig(num_samples=20, seed=3))
        save_dataset(manifest, samples, tmp_path / "a")
        save_dataset(manifest, samples, tmp_path / "b")
        for name in ("manifest.json", "samples.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestGenerator:
    def test_one_modality_zero_noise_sign_separable(self):
        cfg = SyntheticConfig(num_modalities=1, feature_dims=(1,), noise_scale=0.0,
                              num_classes=2, num_samples=50, seed=0,
                              informative_modality="m0")
        _, samples = generate_synthetic(cfg)
        for s in samples:
            value = s.instances[0].payload[0]
            assert abs(value) == 1.0
            assert np.argmax(s.labels) == (1 if value > 0 else 0)

    def test_missing_rate_monte_carlo(self):
        cfg = SyntheticConfig(num_modalities=2, num_samples=1000, seed=1,
                              missing_rates=(0.0, 0.5))
        _, samples = generate_synthetic(cfg)
        present = sum(any(i.modality_id == "m1" for i in s.instances)
                      for s in samples)
        assert abs(present / 1000 - 0.5) < 0.05

    def test_regeneration_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(num_samples=60, seed=9, missing_rates=0.2)
        for sub in ("x", "y"):
            manifest, samples = generate_synthetic(cfg)
            save_dataset(manifest, samples, tmp_path / sub)
        for name in ("manifest.json", "samples.jsonl"):
            assert (tmp_path / "x" / name).read_bytes() == \
                (tmp_path / "y" / name).read_bytes()

    def test_label_balance(self):
        cfg = SyntheticConfig(num_classes=4, feature_dims=(8, 8, 8, 8),
                              num_samples=1000, seed=2)
        _, samples = generate_synthetic(cfg)
        counts = np.stack([s.labels for s in samples]).sum(axis=0)
        assert np.all(np.abs(counts - 250) <= 0.05 * 250)

    def test_every_sample_has_instances(self):
        cfg = SyntheticConfig(num_samples=300, seed=4, missing_rates=0.8)
        _, samples = generate_synthetic(cfg)
        assert all(len(s.instances) >= 1 for s in samples)

    def test_multi_label_generation(self):
        cfg = SyntheticConfig(num_classes=3, feature_dims=(8, 4, 4, 4),
                              num_samples=400, seed=5, task="multi_label")
        manifest, samples = generate_synthetic(cfg)
        assert manifest.task == "multi_label"
        mat = np.stack([s.labels for s in samples])
        assert np.all(mat.sum(axis=1) >= 1)
        rates = mat.mean(axis=0)
        assert np.all(np.abs(rates - rates.mean()) < 0.1)

    def test_informative_modality_never_missing(self):
        cfg = SyntheticConfig(num_samples=200, seed=6, missing_rates=0.9)
        _, samples = generate_synthetic(cfg)
        assert all(any(i.modality_id == "m0" for i in s.instances) for s in samples)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_modalities=0)
        with pytest.raises(ValueError):
            SyntheticConfig(min_instances=3, max_instances=2)
        with pytest.raises(ValueError):
            SyntheticConfig(informative_modality="nope")
        with pytest.raises(ValueError):
            SyntheticConfig(missing_rates=(0.5, 0.0, 0.0, 0.0))  # informative missing
        with pytest.raises(ValueError):
            SyntheticConfig(num_classes=8, feature_dims=(2, 8, 8, 8))  # needs 3 bits
        with pytest.raises(ValueError):
            SyntheticConfig(task="ranking")
