"""Command-line entry points: generate data, train, evaluate.

Configuration precedence is flags > config file > defaults, with the env
var MMSETS_SEED as a seed fallback. Every run writes its fully resolved
config next to its artifacts inside an output directory named by the config
hash, so identical runs land in the same place with identical bytes (only
the log header carries a timestamp).

Exit codes: 0 success, 1 usage/config error, 2 data validation error,
3 numeric runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import time
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


def _resolve(defaults: dict, args) -> dict:
    """Flags over the config file over ``defaults``; each flag's dest is the
    field it sets. An unset seed falls back to MMSETS_SEED, then 0."""
    resolved = dict(defaults)
    for key, value in (read_json_object(args.config, ConfigError) if args.config else {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown config field {key!r}")
        resolved[key] = value
    for key in defaults:
        if getattr(args, key, None) is not None:
            resolved[key] = getattr(args, key)
    if resolved["seed"] is None:
        env = os.environ.get("MMSETS_SEED", "0")
        try:
            resolved["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"MMSETS_SEED must be an integer, got {env!r}")
    return resolved


def config_hash(resolved: dict) -> str:
    text = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _run_dir(resolved: dict, out, outputs=()) -> Path:
    """The run directory, holding the resolved config and none of the
    ``outputs`` an earlier run left there, so a failed run leaves none."""
    run_dir = Path(out) / config_hash(resolved)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        for name in outputs:
            (run_dir / name).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"{run_dir}: cannot set up the run directory: {exc.strerror}")
    (run_dir / "resolved_config.json").write_text(
        json.dumps(resolved, sort_keys=True, indent=2) + "\n")
    return run_dir


def _log_writer(path: Path):
    fh = open(path, "w")
    fh.write(json.dumps({"event": "start", "timestamp": time.time()}) + "\n")

    def write(record: dict) -> None:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()

    return fh, write


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
    resolved = _resolve(GEN_DEFAULTS, args)
    cfg = _config(SyntheticConfig, resolved)
    run_dir = _run_dir(resolved, args.out)
    manifest, samples = generate_synthetic(cfg)
    save_dataset(manifest, samples, run_dir)
    print(f"wrote {manifest.sample_count} samples to {run_dir}")
    return 0


def _prepare(args, extra_defaults: dict):
    """Load the data and resolve and check every train/eval setting, before
    anything is written. Returns (manifest, samples, resolved config,
    seed -> fresh model, TrainConfig)."""
    if not args.data:
        raise ConfigError("--data is required")
    manifest, samples = load_dataset_dir(args.data)
    if not samples:
        raise DataError("the dataset holds no samples", field=str(args.data))
    resolved = _resolve({**MODEL_DEFAULTS, **TRAIN_DEFAULTS, **extra_defaults}, args)
    resolved["data"] = str(args.data)
    resolved["command"] = args.command
    return (manifest, samples, resolved, _model_builder(manifest, resolved),
            _config(TrainConfig, resolved))


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


def _check_sets_nonempty(model, samples) -> None:
    """A set model needs every sample to keep an instance of one of its
    modalities; the concat baseline takes such a sample as zero slots."""
    if not isinstance(model, FusionModel):
        return
    kept = set(model.modality_ids)
    for sample in samples:
        if not any(inst.modality_id in kept for inst in sample.instances):
            raise DataError(f"no instance of the model's modalities {sorted(kept)}",
                            sample_id=sample.sample_id, field="modalities")


def cmd_train(args) -> int:
    manifest, samples, resolved, build_model, train_config = _prepare(args, {})
    model = build_model(resolved["seed"])
    _check_sets_nonempty(model, samples)
    run_dir = _run_dir(resolved, args.out, ["checkpoint.json"])
    fh, write = _log_writer(run_dir / "train_log.jsonl")
    try:
        train(model, samples, train_config, task=manifest.task, on_epoch=write)
    finally:
        fh.close()
    save_checkpoint(model, run_dir / "checkpoint.json", config_hash(resolved))
    print(f"checkpoint written to {run_dir / 'checkpoint.json'}")
    return 0


def cmd_eval(args) -> int:
    manifest, samples, resolved, build_model, train_config = _prepare(args, EVAL_DEFAULTS)
    if not isinstance(resolved["importance"], bool):
        raise ConfigError(f"importance must be a bool, got {resolved['importance']!r}")
    k = resolved["kfold"]
    if k and (isinstance(k, bool) or not isinstance(k, int) or not 2 <= k <= len(samples)):
        raise ConfigError(f"kfold must be an integer from 2 to the sample count "
                          f"{len(samples)}, got {k!r}")
    if not k and not (resolved["checkpoint"] and isinstance(resolved["checkpoint"], str)):
        raise ConfigError("eval needs --kfold K or --checkpoint PATH")
    if k:
        model = build_model(resolved["seed"])  # fold 0's model, to check against
    else:
        model, _ = load_checkpoint(resolved["checkpoint"])
        _check_checkpoint_fits(model, manifest)
    _check_sets_nonempty(model, samples)
    # the evaluated model decides: the --kfold model, or the checkpoint's
    pool, dim = getattr(model, "pool", "concat"), model.config.dim
    if resolved["importance"] and pool not in ("max", "min"):
        raise ConfigError(f"--importance needs max or min pooling, got {pool!r}")

    run_dir = _run_dir(resolved, args.out,
                       ["report.json", "fim.csv", "fim.json", "importance_records.jsonl"])
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
            for rec in records:
                fh.write(json.dumps({"sample_id": rec.sample_id, "counts": rec.counts,
                                     "fractions": rec.fractions}, sort_keys=True) + "\n")
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
