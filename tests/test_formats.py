"""FORMATS.md's field tables name exactly the fields the code reads and
writes, so a field added, renamed or dropped in the code cannot go
undocumented."""

import itertools
import json
import re
from pathlib import Path

from mmsets import ConcatModel, FusionModel, ModalitySpec, save_checkpoint
from mmsets.cli import EVAL_DEFAULTS, GEN_DEFAULTS, MODEL_DEFAULTS, TRAIN_DEFAULTS

FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"


def table_names(heading: str) -> set[str]:
    """The backticked names in the first column of the first table under the
    ``## heading`` section."""
    section = FORMATS.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = itertools.dropwhile(lambda line: not line.startswith("|"), section.splitlines())
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    return {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])}


def test_training_config_table_names_every_field():
    assert (table_names("Training config (`--config` JSON)")
            == set(MODEL_DEFAULTS | TRAIN_DEFAULTS | EVAL_DEFAULTS))


def test_generator_config_table_names_every_field():
    assert table_names("Generator config (`gen-synthetic --config` JSON)") == set(GEN_DEFAULTS)


def test_checkpoint_table_names_every_top_level_key(tmp_path):
    specs = [ModalitySpec("m0", "dense", input_dim=3),
             ModalitySpec("obj", "index_sequence", vocab_size=5)]
    keys = set()
    for model in (FusionModel(specs, 2, dim=4), ConcatModel(specs, 2, dim=4)):
        save_checkpoint(model, tmp_path / "checkpoint.json")
        keys |= json.loads((tmp_path / "checkpoint.json").read_text()).keys()
    assert table_names("Checkpoint (`checkpoint.json`)") == keys
