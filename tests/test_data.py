import json

import numpy as np
import pytest

from mmsets.data import (DatasetManifest, ModalityInstance, Sample, SyntheticConfig,
                         generate_synthetic, load_dataset, load_dataset_dir, save_dataset)
from mmsets.errors import DataError
from mmsets.fusion import ModalitySpec

from helpers import mixed_specs, random_sample


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

    @pytest.mark.parametrize("spec,message", [
        (5, "a modality must be a JSON object, not int"),
        ({"modality_id": "img", "input_dim": 3}, "modality is missing 'kind'"),
    ], ids=["modality-an-int", "modality-without-kind"])
    def test_malformed_modality_named(self, tmp_path, spec, message):
        obj = small_manifest().to_dict()
        obj["modalities"][1] = spec
        paths = write_dataset(tmp_path, obj, [sample_line()])
        with pytest.raises(DataError, match=rf"manifest.json:modalities\[1\]: {message}$"):
            load_dataset(*paths)

    @pytest.mark.parametrize("field,value", [("modalities", 5), ("class_names", [[1], [2]]),
                                             ("class_names", [1, 2]), ("sample_count", True),
                                             ("format_version", True),
                                             ("format_version", 1.0)],
                             ids=["modalities-int", "class-names-lists", "class-names-ints",
                                  "sample-count-bool", "format-version-bool",
                                  "format-version-float"])
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

    def test_records_end_only_at_newline(self, tmp_path):
        # JSON allows U+2028, U+2029 and U+0085 raw inside a string; JSON
        # Lines separates records at "\n" alone
        manifest = small_manifest()
        manifest.sample_count = 2
        lines = [json.dumps(json.loads(sample_line(**field)), ensure_ascii=False)
                 for field in ({"group": "a\u2028b\u2029c"}, {"sample_id": "s\u00852"})]
        assert "\u2028" in lines[0] and "\u0085" in lines[1]  # written raw
        _, samples = load_dataset(*write_dataset(tmp_path, manifest.to_dict(), lines))
        assert [(s.sample_id, s.group) for s in samples] == [("s1", "a\u2028b\u2029c"),
                                                              ("s\u00852", None)]
        save_dataset(manifest, samples, tmp_path / "again")
        _, again = load_dataset_dir(tmp_path / "again")
        assert [(s.sample_id, s.group) for s in again] == [(s.sample_id, s.group)
                                                           for s in samples]

    def test_whitespace_lines_are_not_records(self, tmp_path):
        manifest = small_manifest()
        manifest.sample_count = 2  # counts records, not lines
        records = [sample_line(sample_id="s1"), sample_line(sample_id="s2")]
        for name in ("plain", "blank", "bad"):
            (tmp_path / name).mkdir()
        _, plain = load_dataset(*write_dataset(tmp_path / "plain", manifest.to_dict(), records))
        _, blank = load_dataset(*write_dataset(tmp_path / "blank", manifest.to_dict(),
                                               [records[0], "", " \t", records[1], "  "]))
        assert [s.sample_id for s in blank] == [s.sample_id for s in plain] == ["s1", "s2"]
        paths = write_dataset(tmp_path / "bad", manifest.to_dict(),
                              [records[0], "", "{not json"])
        with pytest.raises(DataError, match="line 3 is not valid JSON"):  # physical lines
            load_dataset(*paths)

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
            sample_line(instances=[{"modality": ["img"], "payload": [1.0, 2.0, 3.0]}]),
            sample_line(instances=[{"modality": {}, "payload": [1.0, 2.0, 3.0]}]),
        ]
        # dense entries are JSON numbers: no strings, booleans, null or lists
        not_numbers = [["1.5", True, 0], [1.0, None, 2.0], ["1.5", True, None],
                       [[1, 2], [3, 4], [5, 6]], [0.5, False, 1.0], ["x", 1.0, 2.0]]
        exact = [(sample_line(instances=[{"modality": "img", "payload": payload}]),
                  "sample 's1': instances[0].payload: dense payload must contain numbers")
                 for payload in not_numbers]
        for bad, message in [(case, None) for case in cases] + exact:
            paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
            with pytest.raises(DataError) as info:
                load_dataset(*paths)
            assert message is None or str(info.value) == message, bad

    @pytest.mark.parametrize("modality,number,message", [
        ("obj", 2**63, "index out of vocabulary range [0, 5)"),
        ("obj", -2**64, "index out of vocabulary range [0, 5)"),
        ("img", 2**1100, "dense payload must be finite"),
    ], ids=["index-2**63", "index--2**64", "dense-2**1100"])
    def test_numbers_out_of_machine_range_are_data_errors(self, tmp_path, modality, number,
                                                          message):
        payload = [1, number, 2] if modality == "obj" else [0.5, number, 1.0]
        bad = sample_line(instances=[{"modality": "img", "payload": [0.5, -1.0, 2.0]},
                                     {"modality": modality, "payload": payload}])
        paths = write_dataset(tmp_path, small_manifest().to_dict(), [bad])
        with pytest.raises(DataError) as info:
            load_dataset(*paths)
        assert str(info.value) == f"sample 's1': instances[1].payload: {message}"

    def test_payloads_equal_their_json_values(self, tmp_path):
        rng = np.random.default_rng(4)
        manifest = DatasetManifest(modalities=mixed_specs(), class_names=["a", "b"],
                                   task="single_label", sample_count=30)
        samples = [random_sample(rng, manifest.modalities, f"s{k}") for k in range(30)]
        samples[3].group = "g"
        assert any(len({i.modality_id for i in s.instances}) == 1 for s in samples)
        save_dataset(manifest, samples, tmp_path)
        lines = (tmp_path / "samples.jsonl").read_text().splitlines()
        _, loaded = load_dataset_dir(tmp_path)
        assert loaded[3].group == "g"
        payloads = []
        for line, sample in zip(lines, loaded, strict=True):
            raw = json.loads(line)["instances"]
            assert [i.modality_id for i in sample.instances] == [r["modality"] for r in raw]
            for r, inst in zip(raw, sample.instances):
                expected = np.asarray(r["payload"])
                assert inst.payload.dtype == expected.dtype
                assert inst.payload.shape == expected.shape
                assert inst.payload.tobytes() == expected.tobytes()
                payloads.append(inst.payload)
        assert {p.dtype for p in payloads} == {np.dtype(np.float64), np.dtype(np.int64)}
        for k, a in enumerate(payloads):
            assert not any(np.shares_memory(a, b) for b in payloads[k + 1:])

    @pytest.mark.parametrize("lines,message", [
        ([sample_line(sample_id="s1"),
          sample_line(sample_id="s2", instances=[{"modality": "img",
                                                  "payload": [1.0, float("nan"), 0.0]}]),
          sample_line(sample_id="s3"), sample_line(sample_id="s4"),
          sample_line(sample_id="s5", labels=[1, 1])],
         "sample 's2': instances[0].payload: dense payload must be finite"),
        ([sample_line(instances=[{"modality": "obj", "payload": [1, 7]},
                                 {"modality": "audio", "payload": [1.0]}])],
         "sample 's1': instances[0].payload: index out of vocabulary range [0, 5)"),
        ([sample_line(instances=[{"modality": "img", "payload": [1.0, 2.0, float("inf")]}])],
         "sample 's1': instances[0].payload: dense payload must be finite"),
        ([sample_line(sample_id="s1", instances=[{"modality": "img", "payload": [0.5, 1.0, 2.0]},
                                                 {"modality": "obj", "payload": [9]}]),
          sample_line(sample_id="s2", instances=[{"modality": "img",
                                                  "payload": [float("nan"), 1.0, 2.0]}])],
         "sample 's1': instances[1].payload: index out of vocabulary range [0, 5)"),
    ], ids=["nonfinite-before-bad-labels", "out-of-vocabulary-before-unknown-modality",
            "bad-payload-before-sample-count", "earlier-line-across-modalities"])
    def test_first_fault_in_file_order_wins(self, tmp_path, lines, message):
        manifest = small_manifest()
        manifest.sample_count = 9  # no file here has 9 samples
        paths = write_dataset(tmp_path, manifest.to_dict(), lines)
        with pytest.raises(DataError) as info:
            load_dataset(*paths)
        assert str(info.value) == message


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

    def test_save_refuses_a_count_mismatch(self, tmp_path):
        manifest, samples = generate_synthetic(SyntheticConfig(num_samples=20, seed=3))
        with pytest.raises(ValueError, match="declares 20 samples, got 10"):
            save_dataset(manifest, samples[:10], tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_payload_lines_are_pinned(self, tmp_path):
        """Each payload is written as the JSON of its values: floats by their
        shortest float64 repr (float32 widened exactly), ints in full, and
        bools as 0/1."""
        payloads = [np.array([-0.0, 5e-324, 1e308, 1 / 3]),
                    np.array([0.1, -2.5], dtype=np.float32),
                    np.array([0, -7, 2**31 - 1], dtype=np.int32),
                    np.array([0, 2**64 - 1], dtype=np.uint64),
                    np.array([True, False])]
        sample = Sample("s", [ModalityInstance(f"m{i}", p) for i, p in enumerate(payloads)],
                        np.array([0, 1]))
        save_dataset(small_manifest(), [sample], tmp_path)
        assert (tmp_path / "samples.jsonl").read_text() == (
            '{"instances":[{"modality":"m0","payload":[-0.0,5e-324,1e+308,0.3333333333333333]},'
            '{"modality":"m1","payload":[0.10000000149011612,-2.5]},'
            '{"modality":"m2","payload":[0,-7,2147483647]},'
            '{"modality":"m3","payload":[0,18446744073709551615]},'
            '{"modality":"m4","payload":[1,0]}],"labels":[0,1],"sample_id":"s"}\n')


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
