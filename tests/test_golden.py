"""Byte contracts: the sha256 of every file a small CLI matrix writes.

Trained and evaluated bytes depend on the OpenBLAS kernel that numpy runs
(FORMATS.md), so ``golden.json`` pins them per kernel, under ``cores``, and
the run test skips, naming the kernel, where it has no entry. Generated
datasets never reach BLAS and are pinned once, under ``datasets``.

A change that moves numerics on purpose rewrites the entry of the kernel it
runs on with ``python tests/test_golden.py`` and says so in CHANGES.md.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mmsets.cli import main
from mmsets.data import DatasetManifest, ModalityInstance, Sample, save_dataset
from mmsets.fusion import ModalitySpec

GOLDEN = Path(__file__).with_name("golden.json")
TRAIN = ["--epochs", "2", "--warmup-epochs", "1", "--dim", "8"]


def blas_core():
    """The kernel name numpy's bundled OpenBLAS reports, or None."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return None


def _only(directory) -> str:
    (run_dir,) = Path(directory).iterdir()
    return str(run_dir)


def _sequence_dataset(directory) -> None:
    """A small saved dataset with a dense and an index_sequence modality."""
    specs = [ModalitySpec("img", "dense", input_dim=3, max_instances=2),
             ModalitySpec("tok", "index_sequence", vocab_size=9, max_instances=3)]
    rng = np.random.default_rng(11)
    samples = []
    for k in range(24):
        label = k % 2
        instances = [ModalityInstance("img", rng.standard_normal(3) + label)
                     for _ in range(1 + k % 3)]
        instances += [ModalityInstance("tok", rng.integers(4 * label, 4 * label + 5,
                                                           size=1 + k % 5))
                      for _ in range(k % 4)]
        samples.append(Sample(f"q{k:02d}", instances, np.eye(2, dtype=np.int64)[label]))
    save_dataset(DatasetManifest(modalities=specs, class_names=["a", "b"],
                                 task="single_label", sample_count=len(samples)),
                 samples, directory)


def make_datasets() -> dict[str, str]:
    """Write the matrix's datasets under the working directory; their paths."""
    assert main(["gen-synthetic", "--out", "data/single", "--samples", "60", "--seed", "3"]) == 0
    assert main(["gen-synthetic", "--out", "data/multi", "--samples", "40", "--seed", "4",
                 "--task", "multi_label"]) == 0
    _sequence_dataset("data/seq")
    return {"single": _only("data/single"), "multi": _only("data/multi"), "seq": "data/seq"}


def run_matrix(data: dict[str, str]) -> None:
    """Train and evaluate on the datasets, every run under the working directory."""
    for name, flags in (("max", []), ("concat", ["--baseline", "concat"])):
        assert main(["train", "--data", data["single"], "--out", f"train/{name}",
                     *TRAIN, *flags]) == 0
    assert main(["eval", "--data", data["single"], "--out", "eval/checkpoint", "--importance",
                 "--checkpoint", f"{_only('train/max')}/checkpoint.json"]) == 0
    assert main(["eval", "--data", data["single"], "--out", "eval/kfold", "--kfold", "2",
                 "--importance", *TRAIN]) == 0
    assert main(["eval", "--data", data["multi"], "--out", "eval/multi", "--kfold", "2",
                 *TRAIN]) == 0
    assert main(["train", "--data", data["seq"], "--out", "train/seq", *TRAIN]) == 0
    assert main(["eval", "--data", data["seq"], "--out", "eval/seq", "--importance",
                 "--checkpoint", f"{_only('train/seq')}/checkpoint.json"]) == 0


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root`` by its relative path; a training
    log is hashed without its first line, the timestamped header."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "train_log.jsonl":
            data = data.split(b"\n", 1)[1]
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def _assert_matches(got: dict, pinned: dict) -> None:
    differ = sorted(name for name in got.keys() & pinned.keys() if got[name] != pinned[name])
    missing, extra = sorted(pinned.keys() - got.keys()), sorted(got.keys() - pinned.keys())
    assert not (differ or missing or extra), (
        f"bytes differ from tests/golden.json: {differ}; not written: {missing}; "
        f"not pinned: {extra}")


def test_generated_datasets_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    make_datasets()
    _assert_matches(digests(tmp_path), json.loads(GOLDEN.read_text())["datasets"])


def test_trained_and_evaluated_bytes_match_golden(tmp_path, monkeypatch):
    core = blas_core()
    pinned = json.loads(GOLDEN.read_text())["cores"].get(core)
    if pinned is None:
        pytest.skip(f"tests/golden.json has no entry for BLAS core {core!r}")
    monkeypatch.chdir(tmp_path)
    data = make_datasets()
    run_matrix(data)
    got = digests(tmp_path)
    _assert_matches({k: v for k, v in got.items() if not k.startswith("data/")}, pinned)


if __name__ == "__main__":  # rewrite golden.json's datasets and this kernel's entry
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        run_matrix(make_datasets())
        got = digests(Path(tmp))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"cores": {}}
    golden["datasets"] = {k: v for k, v in got.items() if k.startswith("data/")}
    golden["cores"][blas_core()] = {k: v for k, v in got.items() if not k.startswith("data/")}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} for BLAS core {blas_core()!r}")
