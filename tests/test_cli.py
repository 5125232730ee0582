import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmsets.checkpoint import load_checkpoint
from mmsets.cli import (EVAL_DEFAULTS, GEN_DEFAULTS, MODEL_DEFAULTS, TRAIN_DEFAULTS,
                        build_parser, main)
from mmsets.data import DatasetManifest, save_dataset
from mmsets.errors import DataError

from helpers import mixed_specs, random_sample

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def run_dirs(base) -> list[Path]:
    return sorted(p for p in Path(base).iterdir() if p.is_dir())


def gen_dataset(tmp_path, extra=()):
    out = tmp_path / "data"
    code = main(["gen-synthetic", "--out", str(out), "--samples", "40",
                 "--seed", "3", *extra])
    assert code == 0
    (run_dir,) = run_dirs(out)
    return run_dir


def train_checkpoint(tmp_path, data, extra=()) -> Path:
    out = tmp_path / "tr"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--epochs", "1", "--warmup-epochs", "0", "--dim", "8", *extra]) == 0
    (train_dir,) = run_dirs(out)
    return train_dir / "checkpoint.json"


class TestGenSynthetic:
    def test_writes_manifest_and_samples(self, tmp_path):
        run_dir = gen_dataset(tmp_path)
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "samples.jsonl").exists()
        assert (run_dir / "resolved_config.json").exists()

    def test_same_seed_identical_files(self, tmp_path):
        a = gen_dataset(tmp_path / "a")
        b = gen_dataset(tmp_path / "b")
        assert a.name == b.name  # same config hash
        for name in ("manifest.json", "samples.jsonl", "resolved_config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_config_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"num_bananas": 4}))
        code = main(["gen-synthetic", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 1
        assert "num_bananas" in capsys.readouterr().err

    def test_invalid_value_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"noise_scale": -1.0}))
        code = main(["gen-synthetic", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 1
        assert "noise_scale" in capsys.readouterr().err


class TestTrain:
    def test_train_writes_checkpoint_and_log(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "runs"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--pool", "max", "--dim", "16", "--epochs", "2",
                     "--warmup-epochs", "1", "--seed", "1"])
        assert code == 0
        (run_dir,) = run_dirs(out)
        assert (run_dir / "checkpoint.json").exists()
        log_lines = (run_dir / "train_log.jsonl").read_text().splitlines()
        assert json.loads(log_lines[0])["event"] == "start"
        assert len(log_lines) == 3  # header + one line per epoch
        for line in log_lines[1:]:
            record = json.loads(line)
            assert {"epoch", "lr", "loss", "train_accuracy"} == set(record)

    @pytest.mark.parametrize("pool", ["sum", "max", "min", "mean"])
    def test_all_pool_modes_accepted(self, tmp_path, pool):
        data = gen_dataset(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                     "--pool", pool, "--epochs", "1", "--warmup-epochs", "0",
                     "--dim", "8"])
        assert code == 0

    def test_unknown_pool_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                     "--pool", "median"])
        assert code == 1

    @pytest.mark.parametrize("dim", [32, 1024])
    def test_both_reference_dims_run(self, tmp_path, dim):
        data = gen_dataset(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                     "--dim", str(dim), "--epochs", "1", "--warmup-epochs", "0"])
        assert code == 0

    def test_missing_data_dir_is_data_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_identical_runs_identical_checkpoints(self, tmp_path):
        data = gen_dataset(tmp_path)
        ckpts = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["train", "--data", str(data), "--out", str(out),
                         "--epochs", "2", "--warmup-epochs", "1", "--seed", "5",
                         "--dim", "8"]) == 0
            (run_dir,) = run_dirs(out)
            ckpts.append((run_dir / "checkpoint.json").read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_concat_baseline_trains(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                     "--baseline", "concat", "--epochs", "1", "--warmup-epochs", "0",
                     "--dim", "8"])
        assert code == 0

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        data = gen_dataset(tmp_path)
        outs = []
        monkeypatch.setenv("MMSETS_SEED", "9")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "e1"),
                     "--epochs", "1", "--warmup-epochs", "0", "--dim", "8"]) == 0
        (d1,) = run_dirs(tmp_path / "e1")
        cfg = json.loads((d1 / "resolved_config.json").read_text())
        assert cfg["seed"] == 9


class TestEval:
    def test_kfold_eval_report(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "ev"
        code = main(["eval", "--data", str(data), "--out", str(out),
                     "--kfold", "4", "--epochs", "1", "--warmup-epochs", "0",
                     "--dim", "8", "--pool", "max", "--importance"])
        assert code == 0
        (run_dir,) = run_dirs(out)
        report = json.loads((run_dir / "report.json").read_text())
        assert report["num_folds"] == 4
        assert len(report["folds"]) == 4
        assert (run_dir / "fim.csv").exists()
        assert (run_dir / "fim.json").exists()
        records = [json.loads(l) for l in
                   (run_dir / "importance_records.jsonl").read_text().splitlines()]
        assert len(records) == 40
        for rec in records:
            assert abs(sum(rec["fractions"].values()) - 1.0) < 1e-9

    def test_importance_with_sum_pool_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        code = main(["eval", "--data", str(data), "--out", str(tmp_path / "ev"),
                     "--kfold", "2", "--pool", "sum", "--importance"])
        assert code == 1
        assert "max or min" in capsys.readouterr().err

    def test_eval_from_checkpoint(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = main(["eval", "--data", str(data), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(train_checkpoint(tmp_path, data))])
        assert code == 0
        (run_dir,) = run_dirs(tmp_path / "ev")
        report = json.loads((run_dir / "report.json").read_text())
        assert report["num_folds"] == 1

    def test_checkpoint_report_has_the_kfold_fields(self, tmp_path):
        data = gen_dataset(tmp_path)
        lines = (data / "samples.jsonl").read_text().splitlines()
        grouped = [json.dumps({**json.loads(line), "group": f"g{i % 2}"}) for i, line
                   in enumerate(lines)]
        (data / "samples.jsonl").write_text("\n".join(grouped) + "\n")
        reports = {}
        for mode, flags in (("kfold", ["--kfold", "2", "--epochs", "1",
                                       "--warmup-epochs", "0", "--dim", "8"]),
                            ("checkpoint", ["--checkpoint",
                                            str(train_checkpoint(tmp_path, data))])):
            out = tmp_path / mode
            assert main(["eval", "--data", str(data), "--out", str(out), *flags]) == 0
            (run_dir,) = run_dirs(out)
            reports[mode] = json.loads((run_dir / "report.json").read_text())
        assert set(reports["checkpoint"]["per_group_accuracy"]) == {"g0", "g1"}
        assert reports["checkpoint"]["mean"].keys() == reports["kfold"]["mean"].keys()
        assert reports["checkpoint"].keys() == reports["kfold"].keys()

    @pytest.mark.parametrize("train_flags,gen_config,named", [
        ([], {"feature_dims": [4, 8, 8, 8]}, "modalities.m0.input_dim"),
        ([], {"num_classes": 3}, "num_classes"),
        (["--modalities", "m2,m3"], {"num_modalities": 2}, "modalities"),
    ], ids=["narrower-modality", "more-classes", "shares-no-modality"])
    def test_checkpoint_must_fit_the_data(self, tmp_path, capsys, train_flags, gen_config,
                                          named):
        checkpoint = train_checkpoint(tmp_path, gen_dataset(tmp_path), train_flags)
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(gen_config))
        other = gen_dataset(tmp_path / "other", ["--config", str(cfg)])
        out = tmp_path / "ev"
        code = main(["eval", "--data", str(other), "--out", str(out),
                     "--checkpoint", str(checkpoint)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_leftover_size_of_the_other_kind_is_ignored(self, tmp_path):
        # a dense modality that also carries a vocab_size: the spec keeps only
        # input_dim, so the dataset's own checkpoint fits it
        data = gen_dataset(tmp_path, ["--modalities", "2"])
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["modalities"][1]["vocab_size"] = 7
        (data / "manifest.json").write_text(json.dumps(manifest))
        checkpoint = train_checkpoint(tmp_path, data)
        specs = json.loads(checkpoint.read_text())["specs"]
        assert [sorted(spec) for spec in specs] == [
            ["input_dim", "kind", "max_instances", "modality_id"]] * 2
        out = tmp_path / "ev"
        assert main(["eval", "--data", str(data), "--out", str(out),
                     "--checkpoint", str(checkpoint)]) == 0

    @pytest.mark.parametrize("train_flags", [["--pool", "sum"], ["--baseline", "concat"]],
                             ids=["sum", "concat"])
    def test_importance_needs_a_max_or_min_checkpoint(self, tmp_path, capsys, train_flags):
        data = gen_dataset(tmp_path)
        checkpoint = train_checkpoint(tmp_path, data, train_flags)
        out = tmp_path / "ev"
        code = main(["eval", "--data", str(data), "--out", str(out),
                     "--checkpoint", str(checkpoint), "--importance"])
        assert code == 1
        assert "max or min" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_pool_decides_importance(self, tmp_path):
        # the checkpoint's own min pool, not the default max, names the row
        data = gen_dataset(tmp_path)
        checkpoint = train_checkpoint(tmp_path, data, ["--pool", "min"])
        code = main(["eval", "--data", str(data), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(checkpoint), "--importance"])
        assert code == 0
        (run_dir,) = run_dirs(tmp_path / "ev")
        assert (run_dir / "fim.csv").read_text().splitlines()[1].startswith("min_D8,")

    @pytest.mark.parametrize("config,flags,named", [
        ({}, ["--pool", "sum", "--dim", "64", "--epochs", "9"], "dim"),
        ({"seed": 3}, [], "seed"),
        ({"importance": True, "baseline": None}, [], "baseline"),
    ], ids=["flags", "config-seed", "config-default-value"])
    def test_checkpoint_takes_no_model_or_training_field(self, tmp_path, capsys, config,
                                                         flags, named):
        data = gen_dataset(tmp_path)
        checkpoint = train_checkpoint(tmp_path, data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "ev"
        code = main(["eval", "--data", str(data), "--out", str(out), "--config", str(cfg),
                     "--checkpoint", str(checkpoint), *flags])
        assert code == 1
        assert f"{named} cannot be set with --checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_run_is_keyed_by_the_checkpoint_bytes(self, tmp_path):
        """The resolved config holds the eval fields, the data, the command and
        the checkpoint's sha256: a checkpoint rewritten at one path is a new run."""
        data = gen_dataset(tmp_path)
        path = tmp_path / "model.json"
        out = tmp_path / "ev"
        hashes = []
        for seed in ("1", "2"):
            shutil.copyfile(train_checkpoint(tmp_path / seed, data, ["--seed", seed]), path)
            assert main(["eval", "--data", str(data), "--out", str(out),
                         "--checkpoint", str(path)]) == 0
            hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert hashes[0] != hashes[1]
        configs = [json.loads((d / "resolved_config.json").read_text()) for d in run_dirs(out)]
        assert sorted(c["checkpoint_sha256"] for c in configs) == sorted(hashes)
        assert configs[0].keys() == {*EVAL_DEFAULTS, "data", "command", "checkpoint_sha256"}

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_checkpoint_version_must_be_the_integer_1(self, tmp_path, capsys, version):
        data = gen_dataset(tmp_path)
        checkpoint = train_checkpoint(tmp_path, data)
        obj = json.loads(checkpoint.read_text())
        obj["checkpoint_version"] = version
        checkpoint.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="unsupported checkpoint_version"):
            load_checkpoint(checkpoint)
        out = tmp_path / "ev"
        assert main(["eval", "--data", str(data), "--out", str(out),
                     "--checkpoint", str(checkpoint)]) == 2
        assert "checkpoint_version" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_needs_kfold_or_checkpoint(self, tmp_path):
        data = gen_dataset(tmp_path)
        code = main(["eval", "--data", str(data), "--out", str(tmp_path / "ev")])
        assert code == 1

    def test_leave_one_out_has_no_roc_auc(self, tmp_path):
        # --kfold N on N samples: every fold holds one sample, so one class
        data = gen_dataset(tmp_path, ["--samples", "6"])
        out = tmp_path / "ev"
        assert main(["eval", "--data", str(data), "--out", str(out), "--kfold", "6",
                     "--epochs", "1", "--warmup-epochs", "0", "--dim", "8"]) == 0
        (run_dir,) = run_dirs(out)
        report = json.loads((run_dir / "report.json").read_text())
        assert [fold["roc_auc"] for fold in report["folds"]] == [None] * 6
        assert report["mean"]["roc_auc"] is None
        assert report["mean"]["overall_accuracy"] is not None

    def test_multi_label_report_has_three_f1(self, tmp_path):
        data = gen_dataset(tmp_path, extra=["--task", "multi_label"])
        out = tmp_path / "ev"
        code = main(["eval", "--data", str(data), "--out", str(out),
                     "--kfold", "2", "--epochs", "1", "--warmup-epochs", "0",
                     "--dim", "8"])
        assert code == 0
        (run_dir,) = run_dirs(out)
        report = json.loads((run_dir / "report.json").read_text())
        for key in ("f1_micro", "f1_macro", "f1_samples"):
            assert report["mean"][key] is not None


class TestUsage:
    def test_every_flag_sets_a_config_field(self):
        # _resolve reads each flag by its dest, so a dest that is no config
        # field would be dropped without a word
        defaults = {"gen-synthetic": GEN_DEFAULTS, "train": MODEL_DEFAULTS | TRAIN_DEFAULTS,
                    "eval": MODEL_DEFAULTS | TRAIN_DEFAULTS | EVAL_DEFAULTS}
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(defaults)
        for command, parser in subparsers.choices.items():
            dests = {a.dest for a in parser._actions} - {"help", "config", "out", "data"}
            assert dests <= set(defaults[command]), (command, dests - set(defaults[command]))

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["train"]) == 1

    def test_console_script_runs(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "mmsets.cli", "gen-synthetic",
             "--out", str(tmp_path / "d"), "--samples", "5"],
            capture_output=True, text=True)
        assert result.returncode == 0


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One training in a process with 1 BLAS thread and one with 2 write the
    same checkpoint bytes; at dim 256 with batches of 64 the products are
    large enough for OpenBLAS to split them over threads."""
    data = gen_dataset(tmp_path)
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-m", "mmsets.cli", "train", "--data", str(data),
             "--out", str(out), "--dim", "256", "--batch-size", "64", "--epochs", "2",
             "--warmup-epochs", "1"], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        (run_dir,) = run_dirs(out)
        checkpoints.append((run_dir / "checkpoint.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]


class TestModalitySubset:
    def test_train_on_subset(self, tmp_path):
        data = gen_dataset(tmp_path)
        out = tmp_path / "sub"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--modalities", "m0,m2", "--epochs", "1",
                     "--warmup-epochs", "0", "--dim", "8"])
        assert code == 0
        (run_dir,) = run_dirs(out)
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        assert sorted(s["modality_id"] for s in ckpt["specs"]) == ["m0", "m2"]

    def test_unknown_modality_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "s"),
                     "--modalities", "m0,zz"])
        assert code == 1
        assert "zz" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval-kfold", "eval-checkpoint"])
def test_empty_dataset_is_data_error_before_writing(tmp_path, capsys, command):
    data = gen_dataset(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["sample_count"] = 0
    (empty / "manifest.json").write_text(json.dumps(manifest))
    (empty / "samples.jsonl").write_text("")
    args = {"train": ["train"], "eval-kfold": ["eval", "--kfold", "2"],
            "eval-checkpoint": ["eval", "--checkpoint", str(train_checkpoint(tmp_path, data))]}
    out = tmp_path / "runs"
    code = main([*args[command], "--data", str(empty), "--out", str(out),
                 "--epochs", "1", "--warmup-epochs", "0"])
    assert code == 2
    assert "no samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval-kfold", "eval-checkpoint"])
def test_set_model_needs_its_modalities_in_every_sample(tmp_path, capsys, command):
    # with half the instances missing, some sample holds no m1 at all
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"missing_rates": 0.5}))
    data = gen_dataset(tmp_path / "sparse", ["--config", str(cfg)])
    args = {"train": ["train", "--modalities", "m1"],
            "eval-kfold": ["eval", "--kfold", "2", "--modalities", "m1"],
            "eval-checkpoint": ["eval", "--checkpoint", str(train_checkpoint(
                tmp_path, gen_dataset(tmp_path), ["--modalities", "m1"]))]}
    training = [] if command == "eval-checkpoint" else ["--epochs", "1", "--warmup-epochs", "0"]
    out = tmp_path / "runs"
    code = main([*args[command], "--data", str(data), "--out", str(out), *training])
    assert code == 2
    assert "modalities" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    import mmsets.cli as cli
    from mmsets.errors import NumericError

    data = gen_dataset(tmp_path)

    def boom(*args, **kwargs):
        raise NumericError("non-finite loss at epoch 0, sample 's0001'")

    monkeypatch.setattr(cli, "train", boom)
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "r")])
    assert code == 3


def _payload_set_to_1e308(bad, data):
    """A dataset copy whose first sample holds 1e308 in every entry of every
    payload, so training fails whatever its streams draw."""
    lines = (data / "samples.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    for instance in first["instances"]:
        instance["payload"] = [1e308] * len(instance["payload"])
    lines[0] = json.dumps(first)
    _dataset_copy(**{"samples.jsonl": ("\n".join(lines) + "\n").encode()})(bad, data)


@pytest.mark.parametrize("config,setup", [
    ({"peak_lr": 1e300, "epochs": 3, "warmup_epochs": 1}, None),
    ({"epochs": 1, "warmup_epochs": 0}, _payload_set_to_1e308),
], ids=["peak-lr-overflows-the-step", "payload-1e308"])
def test_numeric_failure_is_one_line_without_warnings(tmp_path, capsys, config, setup):
    data = gen_dataset(tmp_path)
    if setup is not None:
        setup(tmp_path / "bad", data)
        data = tmp_path / "bad"
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config))
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "--out", str(tmp_path / "runs")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric error: "), err


def test_failed_optimizer_step_names_the_batch(tmp_path, capsys):
    """A 1e308 payload passes the data checks and first overflows an AdamW
    moment; the error names the epoch and the batch's samples, in order."""
    data = gen_dataset(tmp_path, ["--samples", "120"])
    lines = (data / "samples.jsonl").read_text().splitlines()
    for n, line in enumerate(lines):
        sample = json.loads(line)
        if sample["sample_id"] == "s00007":
            next(i for i in sample["instances"] if i["modality"] == "m0")["payload"][0] = 1e308
            lines[n] = json.dumps(sample)
    (data / "samples.jsonl").write_text("\n".join(lines) + "\n")
    code = main(["train", "--data", str(data), "--epochs", "3", "--warmup-epochs", "1",
                 "--out", str(tmp_path / "runs")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric error: epoch 0, batch of samples ["), err
    assert "'s00007'" in err and err.rstrip().endswith(
        "AdamW step 3 would make parameter 'encoder.m0.weight' non-finite"), err


@pytest.mark.parametrize("flags,outputs", [
    (["train"], ["checkpoint.json"]),
    (["eval", "--kfold", "2", "--importance"],
     ["report.json", "fim.csv", "fim.json", "importance_records.jsonl"]),
], ids=["train", "eval"])
def test_failed_rerun_keeps_no_earlier_outputs(tmp_path, flags, outputs):
    # the run directory is keyed by the data path, not by the data
    data = gen_dataset(tmp_path)
    argv = [*flags, "--data", str(data), "--out", str(tmp_path / "runs"),
            "--epochs", "1", "--warmup-epochs", "0"]
    assert main(argv) == 0
    (run_dir,) = run_dirs(tmp_path / "runs")
    assert all((run_dir / name).exists() for name in outputs)
    _payload_set_to_1e308(tmp_path / "bad", data)
    (data / "samples.jsonl").write_bytes((tmp_path / "bad" / "samples.jsonl").read_bytes())
    assert main(argv) == 3
    assert not any((run_dir / name).exists() for name in outputs)


@pytest.mark.parametrize("command,config,setup,left", [
    (["train"], {"peak_lr": 1e300, "epochs": 3, "warmup_epochs": 1}, None, {"train_log.jsonl"}),
    (["eval", "--kfold", "2"], {"epochs": 1, "warmup_epochs": 0}, _payload_set_to_1e308, set()),
], ids=["train-peak-lr-overflows", "eval-kfold-payload-1e308"])
def test_failed_run_writes_no_resolved_config(tmp_path, command, config, setup, left):
    # a run directory without resolved_config.json holds a failed run
    data = gen_dataset(tmp_path)
    if setup is not None:
        setup(tmp_path / "bad", data)
        data = tmp_path / "bad"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "runs"
    assert main([*command, "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 3
    (run_dir,) = run_dirs(out)
    assert {p.name for p in run_dir.iterdir()} == left
    if left:  # the log keeps the lines written before the failure
        lines = (run_dir / "train_log.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["event"] == "start"
        assert 1 <= len(lines) - 1 < config["epochs"]


def test_interrupted_train_writes_no_resolved_config(tmp_path, monkeypatch):
    import mmsets.cli as cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train", interrupt)
    data = gen_dataset(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--data", str(data), "--out", str(tmp_path / "runs")])
    (run_dir,) = run_dirs(tmp_path / "runs")
    assert {p.name for p in run_dir.iterdir()} == {"train_log.jsonl"}


def test_rerun_clears_the_run_directory(tmp_path):
    data = gen_dataset(tmp_path)
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "runs"),
            "--epochs", "1", "--warmup-epochs", "0", "--dim", "8"]
    assert main(argv) == 0
    (run_dir,) = run_dirs(tmp_path / "runs")
    first = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    (run_dir / "notes.txt").write_text("left by hand\n")
    (run_dir / "extra").mkdir()
    assert main(argv) == 0
    assert {p.name for p in run_dir.iterdir()} == set(first)
    for name in ("checkpoint.json", "resolved_config.json"):
        assert (run_dir / name).read_bytes() == first[name]


def test_run_directory_that_cannot_be_cleared_exits_1(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "runs"),
            "--epochs", "1", "--warmup-epochs", "0", "--dim", "8"]
    assert main(argv) == 0
    (run_dir,) = run_dirs(tmp_path / "runs")
    shutil.rmtree(run_dir)
    run_dir.write_text("a file where the run directory goes\n")
    assert main(argv) == 1
    assert "cannot set up the run directory" in capsys.readouterr().err
    assert run_dir.read_text() == "a file where the run directory goes\n"


class TestFoldSizes:
    def test_327_samples_kfold_5_fold_sizes(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--samples", "327",
                     "--modalities", "2", "--seed", "1"]) == 0
        (data,) = run_dirs(out)
        ev = tmp_path / "ev"
        assert main(["eval", "--data", str(data), "--out", str(ev),
                     "--kfold", "5", "--epochs", "2", "--warmup-epochs", "0",
                     "--dim", "8"]) == 0
        (run_dir,) = run_dirs(ev)
        report = json.loads((run_dir / "report.json").read_text())
        sizes = sorted((f["n_eval"] for f in report["folds"]), reverse=True)
        assert sizes == [66, 66, 65, 65, 65]

    def test_kfold_concat_baseline(self, tmp_path):
        data = gen_dataset(tmp_path)
        ev = tmp_path / "ev"
        assert main(["eval", "--data", str(data), "--out", str(ev),
                     "--kfold", "2", "--epochs", "1", "--warmup-epochs", "0",
                     "--dim", "8", "--baseline", "concat"]) == 0
        (run_dir,) = run_dirs(ev)
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["folds"]) == 2


@pytest.mark.parametrize("command,config,flags,named", [
    ("train", {"dim": "abc"}, [], "dim"),
    ("train", {"dim": 0}, [], "dim"),
    ("train", {"predictor_hidden": [0]}, [], "predictor_hidden"),
    ("train", {"dropout_p": 1.5}, [], "dropout_p"),
    ("train", {"class_prior": 1.5}, [], "class_prior"),
    ("train", {"peak_lr": 0.0}, [], "peak_lr"),
    ("train", {"kernel_widths": []}, [], "kernel_widths"),
    ("train", {"kernel_widths": [2, 2]}, [], "kernel_widths"),
    ("eval", {}, ["--kfold", "1"], "kfold"),
    ("eval", {}, ["--kfold", "100"], "kfold"),
    ("eval", {"importance": "no"}, ["--kfold", "2"], "importance"),
    ("eval", {}, ["--kfold", "2", "--checkpoint", "no-such-checkpoint.json"], "checkpoint"),
    ("gen-synthetic", {"feature_dims": [8.5, 8, 8, 8]}, [], "feature_dims[0]"),
    ("gen-synthetic", {"missing_rates": "x"}, [], "missing_rates"),
    ("train", {"modalities": [["m0"]]}, [], "modalities"),
    ("train", {"modalities": [{}]}, [], "modalities"),
    ("train", {"baseline": "foo"}, [], "baseline must be 'concat' or null, got 'foo'"),
    ("train", {"pool": "median"}, [], "pool must be one of"),  # argparse guards only the flag
    ("train", {}, ["--data", ""], "--data is required"),
    ("train", {"class_weighting": "yes"}, [], "class_weighting must be a bool, got 'yes'"),
    ("train", {"kernel_widths": 3}, [], "kernel_widths must be a list of integers, got 3"),
    ("gen-synthetic", {"feature_dims": 8}, [], "feature_dims must be a list of integers"),
    ("gen-synthetic", {"feature_dims": [8, 8]}, [], "feature_dims must have one entry per"),
    ("gen-synthetic", {"missing_rates": [0.1, 0.2]}, [], "missing_rates must have one entry"),
], ids=["dim-str", "dim-zero", "hidden-zero", "dropout", "class-prior", "peak-lr",
        "no-kernel-widths", "repeated-kernel-widths", "kfold-1", "kfold-over-samples",
        "importance-str", "kfold-with-checkpoint", "feature-dims-float", "missing-rates-str", "modalities-nested-list",
        "modalities-object", "baseline-unknown", "pool-unknown", "data-empty",
        "class-weighting-str", "kernel-widths-int", "feature-dims-int", "feature-dims-short",
        "missing-rates-short"])
def test_bad_config_value_exits_1_before_writing(tmp_path, capsys, command, config,
                                                 flags, named):
    if command != "gen-synthetic":
        data = gen_dataset(tmp_path)  # 40 samples
        flags = ["--data", str(data), "--epochs", "1", "--warmup-epochs", "0", *flags]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "runs"
    code = main([command, "--out", str(out), "--config", str(cfg), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1, err
    assert not out.exists()


def test_env_seed_that_is_no_integer_exits_1_before_writing(tmp_path, capsys, monkeypatch):
    data = gen_dataset(tmp_path)
    monkeypatch.setenv("MMSETS_SEED", "abc")
    out = tmp_path / "runs"
    assert main(["train", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: MMSETS_SEED must be an integer, got 'abc'\n"
    assert not out.exists()


def _repeat_first_modality(data, bad, checkpoint):
    """A dataset copy at the bad path whose manifest names its first
    modality twice, and a training on it."""
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["modalities"][1]["modality_id"] = manifest["modalities"][0]["modality_id"]
    _dataset_copy(**{"manifest.json": json.dumps(manifest).encode()})(bad, data)
    return ["train", "--data", str(bad)]


def _checkpoint_specs(edit):
    """A setup that writes the checkpoint to the bad path with its specs
    edited, and evaluates it on the data."""
    def setup(data, bad, checkpoint):
        obj = json.loads(checkpoint.read_text())
        bad.write_text(json.dumps({**obj, "specs": edit(obj["specs"])}))
        return ["eval", "--data", str(data), "--checkpoint", str(bad)]
    return setup


@pytest.mark.parametrize("setup,message", [
    (_repeat_first_modality, "manifest.json:modalities: duplicate modality_id"),
    (_checkpoint_specs(lambda specs: []),
     "malformed checkpoint: a model needs at least one modality"),
    (_checkpoint_specs(lambda specs: specs + specs[:1]),
     "malformed checkpoint: duplicate modality ids: ['m0', 'm0', 'm1', 'm2', 'm3']"),
], ids=["manifest-repeats-a-modality", "checkpoint-without-specs", "checkpoint-repeats-a-spec"])
def test_repeated_or_missing_modalities_exit_2_before_writing(tmp_path, capsys, setup, message):
    data = gen_dataset(tmp_path)
    checkpoint = train_checkpoint(tmp_path, data)
    capsys.readouterr()
    out = tmp_path / "runs"
    assert main([*setup(data, tmp_path / "bad", checkpoint), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.endswith(message + "\n"), err
    assert err.count("\n") == 1 and not out.exists()


def _dataset_copy(**files):
    """A setup that copies the dataset to the bad path, ``files`` (name ->
    bytes) replaced."""
    def setup(bad, data):
        bad.mkdir()
        for name in ("manifest.json", "samples.jsonl"):
            (bad / name).write_bytes(files.get(name) or (data / name).read_bytes())
    return setup


NOT_UTF8 = b'{"seed": "\xff"}\n'
TRAIN_ON_DATA = ["train", "--data", "DATA", "--epochs", "1", "--warmup-epochs", "0"]
EVAL_BAD_CHECKPOINT = ["eval", "--data", "DATA", "--checkpoint", "BAD"]


@pytest.mark.parametrize("argv,setup,code", [
    (["train", "--data", "BAD"], lambda bad, data: bad.write_text("{}"), 2),
    ([*TRAIN_ON_DATA, "--config", "BAD"], lambda bad, data: bad.mkdir(), 1),
    (EVAL_BAD_CHECKPOINT, lambda bad, data: bad.mkdir(), 2),
    (["train", "--data", "BAD"], _dataset_copy(**{"samples.jsonl": b"\xff\n"}), 2),
    ([*TRAIN_ON_DATA, "--config", "BAD"], lambda bad, data: bad.write_bytes(NOT_UTF8), 1),
    (EVAL_BAD_CHECKPOINT, lambda bad, data: bad.write_bytes(NOT_UTF8), 2),
    (["train", "--data", "BAD"], _dataset_copy(**{"manifest.json": b"5"}), 2),
    (["train", "--data", "BAD"], _dataset_copy(**{"manifest.json": b"null"}), 2),
    (["train", "--data", "BAD"], _dataset_copy(**{"manifest.json": b"true"}), 2),
    (["train", "--data", "BAD"], _dataset_copy(**{"manifest.json": b"1.5"}), 2),
    ([*TRAIN_ON_DATA, "--out", "BAD"], lambda bad, data: bad.write_text(""), 1),
    (["gen-synthetic", "--out", "BAD"], lambda bad, data: bad.write_text(""), 1),
    ([*TRAIN_ON_DATA, "--config", "BAD"], lambda bad, data: bad.write_text("[" * 100000), 1),
], ids=["data-is-a-file", "config-is-a-directory", "checkpoint-is-a-directory",
        "samples-not-utf8", "config-not-utf8", "checkpoint-not-utf8", "manifest-holds-5",
        "manifest-holds-null", "manifest-holds-true", "manifest-holds-float",
        "train-out-is-a-file", "gen-synthetic-out-is-a-file", "config-nested-too-deep"])
def test_unreadable_input_is_one_line_before_writing(tmp_path, capsys, argv, setup, code):
    data = gen_dataset(tmp_path)
    bad = tmp_path / "bad"
    setup(bad, data)
    argv = [{"BAD": str(bad), "DATA": str(data)}.get(a, a) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "runs")]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before  # no run directory, nothing written


# what a mutation may put in place of a node; no int above 8, so no size is large
MUTATIONS = [None, True, False, -1, 0, 1, 2, 8, 0.0, 0.5, -2.5, 1e-3, "", "x", "m0", "max",
             [], [1], ["m0"], [[]], {}, {"m0": 1}]


def _mutate(obj, rng: random.Random):
    """``obj`` with one random node replaced from MUTATIONS or deleted; the
    root is only ever replaced."""
    nodes = [(None, None)]  # (container, key) of every node; the root has none

    def walk(node):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            nodes.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(obj)
    container, key = rng.choice(nodes)
    value = json.loads(json.dumps(rng.choice(MUTATIONS)))  # a fresh copy
    if container is None:
        return value
    if rng.random() < 0.5:
        del container[key]
    else:
        container[key] = value
    return obj


def test_mutated_inputs_end_in_an_exit_code(tmp_path):
    """Property test: with one random node of a valid manifest, sample line,
    config or checkpoint replaced or deleted, ``main`` returns 0 to 3."""
    out = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(out), "--samples", "4", "--modalities", "2",
                 "--seed", "5"]) == 0
    (data,) = run_dirs(out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dim": 4, "epochs": 2, "warmup_epochs": 1,
                                  "batch_size": 2}))
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(tmp_path / "tr")]) == 0
    (train_dir,) = run_dirs(tmp_path / "tr")
    valid = {"manifest.json": (data / "manifest.json").read_text(),
             "samples.jsonl": (data / "samples.jsonl").read_text(),
             "config.json": config.read_text(),
             "checkpoint.json": (train_dir / "checkpoint.json").read_text()}
    rng = random.Random(0)
    for case in range(200):
        files = dict(valid)
        name = rng.choice(sorted(files))
        docs = files[name].splitlines() if name == "samples.jsonl" else [files[name]]
        i = rng.randrange(len(docs))
        docs[i] = json.dumps(_mutate(json.loads(docs[i]), rng))
        files[name] = "\n".join(docs) + "\n"
        case_dir = tmp_path / f"case{case}"
        case_dir.mkdir()
        for file_name, text in files.items():
            (case_dir / file_name).write_text(text)
        command = (["eval", "--checkpoint", str(case_dir / "checkpoint.json"), "--importance"]
                   if name == "checkpoint.json"
                   else ["train", "--config", str(case_dir / "config.json")])
        try:
            code = main([*command, "--data", str(case_dir), "--out", str(case_dir / "runs")])
        except Exception as exc:
            pytest.fail(f"case {case}: {name} holding {files[name][:300]!r} raised {exc!r}")
        assert code in (0, 1, 2, 3)


def _with_payload_entry(line: str, instance: int, entry: int, raw: str) -> str:
    """The sample line with one payload entry replaced by the JSON text ``raw``."""
    sample = json.loads(line)
    sample["instances"][instance]["payload"][entry] = "@entry@"
    return json.dumps(sample).replace('"@entry@"', raw)


def test_int_beyond_float64_in_a_payload_exits_2(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    lines = (data / "samples.jsonl").read_text().splitlines()
    lines[1] = _with_payload_entry(lines[1], 0, 0, str(2**1100))
    (data / "samples.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "runs"
    assert main(["train", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("data error: sample 's00001': instances[0].payload: "
                                       "dense payload must be finite\n")
    assert not out.exists()


# payload entries no modality accepts, as JSON text; the big ints only fail
# in an index payload, since a dense one holds them as finite floats
BAD_ENTRIES = [str(2**64), str(-2**64), '"1.0"', "true", "null", "1e400", "[1]"]


def test_mutated_payloads_exit_2(tmp_path):
    """Property test: with one random payload entry of one sample line set to
    a value from BAD_ENTRIES, ``main`` returns 2."""
    rng = np.random.default_rng(0)
    manifest = DatasetManifest(modalities=mixed_specs(), class_names=["a", "b"],
                               task="single_label", sample_count=6)
    save_dataset(manifest, [random_sample(rng, manifest.modalities, f"s{k}") for k in range(6)],
                 tmp_path / "data")
    valid = (tmp_path / "data" / "samples.jsonl").read_text().splitlines()
    pick = random.Random(0)
    for case in range(60):
        raw = pick.choice(BAD_ENTRIES)
        kinds = ("obj",) if raw.lstrip("-").isdigit() else ("img", "obj")
        n = pick.randrange(len(valid))
        instances = json.loads(valid[n])["instances"]
        spots = [(i, k) for i, inst in enumerate(instances) if inst["modality"] in kinds
                 for k in range(len(inst["payload"]))]
        if not spots:
            continue
        lines = list(valid)
        lines[n] = _with_payload_entry(lines[n], *pick.choice(spots), raw)
        case_dir = tmp_path / f"case{case}"
        case_dir.mkdir()
        shutil.copy(tmp_path / "data" / "manifest.json", case_dir)
        (case_dir / "samples.jsonl").write_text("\n".join(lines) + "\n")
        try:
            code = main(["train", "--data", str(case_dir), "--epochs", "1",
                         "--warmup-epochs", "0", "--out", str(case_dir / "runs")])
        except Exception as exc:
            pytest.fail(f"case {case}: {lines[n]!r} raised {exc!r}")
        assert code == 2, lines[n]
