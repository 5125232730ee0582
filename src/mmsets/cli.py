"""Command-line entry points: generate data, train, evaluate.

Configuration precedence is flags > config file > defaults, with the env
var MMSETS_SEED as a seed fallback. Every run clears an output directory
named by the config hash, writes its artifacts there and then, last, its
fully resolved config, so identical runs land in the same place with
identical bytes (only the log header carries a timestamp).

Exit codes: 0 success, 1 usage/config error, 2 data validation error,
3 numeric runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import SyntheticConfig, generate_synthetic, load_dataset_dir, save_dataset
from .errors import ConfigError, DataError, NumericError, read_json_object
from .evaluate import evaluate_trained, run_kfold
from .fusion import ConcatModel, FusionModel, ModelConfig, aggregate_importance
from .metrics import export_fim
from .tensor import POOL_MODES
from .training import TrainConfig, train

def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


# The generator and training seeds fall back to MMSETS_SEED, then 0.
GEN_DEFAULTS = {**_field_defaults(SyntheticConfig), "seed": None}
MODEL_DEFAULTS = {**_field_defaults(ModelConfig),
                  "pool": inspect.signature(FusionModel).parameters["pool"].default,
                  "baseline": None, "modalities": None}
TRAIN_DEFAULTS = {**_field_defaults(TrainConfig), "seed": None}
EVAL_DEFAULTS = {"kfold": 0, "importance": False, "checkpoint": None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _given(defaults: dict, args) -> dict:
    """The fields of ``defaults`` that the config file sets, each overridden
    by its flag, and those set by a flag alone; each flag's dest is the field
    it sets. A config field not in ``defaults`` is a ConfigError."""
    given = read_json_object(args.config, ConfigError) if args.config else {}
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown config field {key!r}")
    for key in defaults:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    return given


def _resolve(defaults: dict, given: dict) -> dict:
    """``given`` over ``defaults``. An unset seed falls back to MMSETS_SEED,
    then 0."""
    resolved = {**defaults, **given}
    if "seed" in resolved and resolved["seed"] is None:
        env = os.environ.get("MMSETS_SEED", "0")
        try:
            resolved["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"MMSETS_SEED must be an integer, got {env!r}")
    return resolved


def config_hash(resolved: dict) -> str:
    text = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@contextmanager
def _run_dir(resolved: dict, out):
    """The run directory, emptied of whatever an earlier run left there. The
    resolved config is written only when the block exits normally, so a
    directory without ``resolved_config.json`` holds a failed or interrupted run."""
    run_dir = Path(out) / config_hash(resolved)
    try:
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir(parents=True)
    except OSError as exc:
        raise ConfigError(f"{run_dir}: cannot set up the run directory: {exc.strerror or exc}")
    yield run_dir
    (run_dir / "resolved_config.json").write_text(
        json.dumps(resolved, sort_keys=True, indent=2) + "\n")


def _select_specs(manifest, resolved: dict):
    wanted = resolved["modalities"]
    if wanted is None:
        return manifest.modalities
    if isinstance(wanted, str):
        wanted = [m.strip() for m in wanted.split(",") if m.strip()]
    if not isinstance(wanted, list) or not wanted or not all(isinstance(m, str) for m in wanted):
        raise ConfigError(f"modalities must be a nonempty list of modality ids, got {wanted!r}")
    known = {s.modality_id for s in manifest.modalities}
    unknown = sorted(set(wanted) - known)
    if unknown:
        raise ConfigError(f"modalities not in the dataset manifest: {unknown}")
    return [s for s in manifest.modalities if s.modality_id in set(wanted)]


def _config(cls, resolved: dict):
    """``cls`` built from the resolved values of its fields; a bad value is
    a ConfigError."""
    try:
        return cls(**{f.name: resolved[f.name] for f in fields(cls) if f.name in resolved})
    except ValueError as exc:
        raise ConfigError(str(exc))


def _model_builder(manifest, resolved: dict):
    """Check every model setting now; return seed -> a fresh model."""
    specs = _select_specs(manifest, resolved)
    config = asdict(_config(ModelConfig, resolved))
    num_classes = manifest.num_classes
    if resolved["baseline"] == "concat":
        return lambda seed: ConcatModel(specs, num_classes, seed=seed, **config)
    if resolved["baseline"] is not None:
        raise ConfigError(f"baseline must be 'concat' or null, got {resolved['baseline']!r}")
    pool = resolved["pool"]
    if pool not in POOL_MODES:
        raise ConfigError(f"pool must be one of {POOL_MODES}, got {pool!r}")
    return lambda seed: FusionModel(specs, num_classes, pool=pool, seed=seed, **config)


def cmd_gen_synthetic(args) -> int:
    resolved = _resolve(GEN_DEFAULTS, _given(GEN_DEFAULTS, args))
    cfg = _config(SyntheticConfig, resolved)
    with _run_dir(resolved, args.out) as run_dir:
        manifest, samples = generate_synthetic(cfg)
        save_dataset(manifest, samples, run_dir)
    print(f"wrote {manifest.sample_count} samples to {run_dir}")
    return 0


def _prepare(args, defaults: dict):
    """Load the data and read the fields of ``defaults`` that the config file
    and flags set, before anything is written. Returns (manifest, samples,
    the given fields)."""
    if not args.data:
        raise ConfigError("--data is required")
    manifest, samples = load_dataset_dir(args.data)
    if not samples:
        raise DataError("the dataset holds no samples", field=str(args.data))
    return manifest, samples, _given(defaults, args)


def _check_checkpoint_fits(model, manifest) -> None:
    """The checkpoint's classes, and the shape of each modality it shares with
    the dataset, must be the manifest's; it must share at least one."""
    if model.num_classes != manifest.num_classes:
        raise DataError(f"checkpoint has {model.num_classes} classes, the dataset "
                        f"{manifest.num_classes}", field="num_classes")
    declared = {s.modality_id: s for s in manifest.modalities}
    if not declared.keys() & set(model.modality_ids):
        raise DataError(f"checkpoint has {list(model.modality_ids)}, the dataset "
                        f"{sorted(declared)}; they share none", field="modalities")
    for spec in model.specs:
        other = declared.get(spec.modality_id)
        for name in ("kind", "input_dim", "vocab_size"):
            if other is not None and getattr(spec, name) != getattr(other, name):
                raise DataError(f"checkpoint has {getattr(spec, name)!r}, the dataset "
                                f"{getattr(other, name)!r}",
                                field=f"modalities.{spec.modality_id}.{name}")


def cmd_train(args) -> int:
    defaults = {**MODEL_DEFAULTS, **TRAIN_DEFAULTS}
    manifest, samples, given = _prepare(args, defaults)
    resolved = _resolve(defaults, given)
    resolved.update(data=str(args.data), command=args.command)
    build_model, train_config = _model_builder(manifest, resolved), _config(TrainConfig, resolved)
    model = build_model(resolved["seed"])
    model.group(samples)  # a set model's empty sample fails before the run directory
    with _run_dir(resolved, args.out) as run_dir, open(run_dir / "train_log.jsonl", "w") as log:
        print(json.dumps({"event": "start", "timestamp": time.time()}), file=log)
        train(model, samples, train_config, task=manifest.task,
              on_epoch=lambda rec: print(json.dumps(rec, sort_keys=True), file=log, flush=True))
        save_checkpoint(model, run_dir / "checkpoint.json", config_hash(resolved))
    print(f"checkpoint written to {run_dir / 'checkpoint.json'}")
    return 0


def cmd_eval(args) -> int:
    defaults = {**MODEL_DEFAULTS, **TRAIN_DEFAULTS, **EVAL_DEFAULTS}
    manifest, samples, given = _prepare(args, defaults)
    resolved = {key: given.get(key, default) for key, default in EVAL_DEFAULTS.items()}
    if not isinstance(resolved["importance"], bool):
        raise ConfigError(f"importance must be a bool, got {resolved['importance']!r}")
    k = resolved["kfold"]
    if k and (isinstance(k, bool) or not isinstance(k, int) or not 2 <= k <= len(samples)):
        raise ConfigError(f"kfold must be an integer from 2 to the sample count "
                          f"{len(samples)}, got {k!r}")
    if k and resolved["checkpoint"] is not None:
        raise ConfigError("checkpoint must be null with --kfold, which trains its own models")
    if not k and not (resolved["checkpoint"] and isinstance(resolved["checkpoint"], str)):
        raise ConfigError("eval needs --kfold K or --checkpoint PATH")
    if k:
        resolved = _resolve(defaults, given)
        build_model, train_config = _model_builder(manifest, resolved), _config(TrainConfig, resolved)
        model = build_model(resolved["seed"])  # fold 0's model, to check against
    else:
        decided = [key for key in given if key not in EVAL_DEFAULTS]
        if decided:
            raise ConfigError(f"{decided[0]} cannot be set with --checkpoint, whose model "
                              f"and training are fixed; got {sorted(decided)}")
        path = resolved["checkpoint"]
        model, _ = load_checkpoint(path)
        try:
            resolved["checkpoint_sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError as exc:
            raise DataError(f"{path}: cannot read: {exc.strerror}") from None
        _check_checkpoint_fits(model, manifest)
    resolved.update(data=str(args.data), command=args.command)
    model.group(samples)
    # the evaluated model decides: the --kfold model, or the checkpoint's
    pool, dim = getattr(model, "pool", "concat"), model.config.dim
    if resolved["importance"] and pool not in ("max", "min"):
        raise ConfigError(f"--importance needs max or min pooling, got {pool!r}")

    with _run_dir(resolved, args.out) as run_dir:
        if k:
            report, records = run_kfold(samples, manifest.task,
                                        lambda fold: build_model(resolved["seed"] + 1000 * fold),
                                        train_config, k=k, seed=resolved["seed"])
        else:
            report, records = evaluate_trained(model, samples, manifest.task)
        if resolved["importance"]:
            report.fim = aggregate_importance(records)
            export_fim([(f"{pool}_D{dim}", report.fim)], run_dir / "fim.csv")
            with open(run_dir / "importance_records.jsonl", "w") as fh:
                fh.writelines(json.dumps(asdict(rec), sort_keys=True) + "\n" for rec in records)
        (run_dir / "report.json").write_text(report.to_json())
    print(f"report written to {run_dir / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmsets",
                     description="Multi-modal set fusion: generate, train, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic dataset")
    gen.add_argument("--config", help="JSON file with generator settings")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--samples", type=int, dest="num_samples")
    gen.add_argument("--classes", type=int, dest="num_classes")
    gen.add_argument("--modalities", type=int, dest="num_modalities")
    gen.add_argument("--task", choices=["single_label", "multi_label"])
    gen.add_argument("--seed", type=int)
    gen.set_defaults(func=cmd_gen_synthetic)

    def add_common(p):
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--pool", choices=list(POOL_MODES))
        p.add_argument("--dim", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--warmup-epochs", type=int, dest="warmup_epochs")
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--seed", type=int)
        p.add_argument("--baseline", choices=["concat"])
        p.add_argument("--modalities",
                       help="comma-separated subset of manifest modalities")

    tr = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate via k-fold or a checkpoint")
    add_common(ev)
    ev.add_argument("--kfold", type=int, help="number of folds to train/evaluate")
    ev.add_argument("--importance", action="store_true", default=None,
                    help="emit per-sample importance records and the aggregated matrix")
    ev.add_argument("--checkpoint", help="evaluate an existing checkpoint")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # each numeric failure is checked and named
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
