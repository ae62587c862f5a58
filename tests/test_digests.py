"""Output identity: the training file and predictions of two fixed worlds are pinned.

``build-training`` -> ``train`` -> ``extract`` runs on acceptance criterion 9's
40-subject world and on a small long-style world of ``perfbench/worlds.py``
extracted with ``--zero-mode`` (zero cues, distractors, non-ASCII names). The
SHA-256 of the training file and of the predictions must equal the values in
``tests/data/digests.json``. A change that moves one updates the pin and says
why. Model bytes are not pinned: they move with float rounding across
platforms, and CI compares two fits of one model instead.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from countquant.cli import main as cli_main

import synthbench

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).parent / "data" / "digests.json"


def _perfbench_worlds():
    """``perfbench/worlds.py``, imported from its file under a name of its own."""
    name = "perfbench_worlds"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "worlds.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _criterion_9_world(root: Path) -> tuple[dict[str, Path], list[str]]:
    subjects = synthbench.generate_world(n_subjects=40, seed=909)
    return synthbench.write_world(subjects, root, train_split=30), []


def _long_zero_mode_world(root: Path) -> tuple[dict[str, Path], list[str]]:
    worlds = _perfbench_worlds()
    subjects = worlds.generate_world("long", n_subjects=36, seed=7)
    return worlds.write_world(subjects, root, train_split=24), ["--zero-mode"]


WORLDS = {"criterion-9": _criterion_9_world, "long-zero-mode": _long_zero_mode_world}


def run_world(name: str, root: Path) -> dict[str, str]:
    """SHA-256 of the training file and of the predictions of world *name*."""
    paths, extract_flags = WORLDS[name](root)
    training, model, predictions = root / "train.conll", root / "model.json", root / "pred.jsonl"
    runner = CliRunner()
    for args in (
        ["build-training", "--kb", str(paths["kb"]), "--corpus", str(paths["train_corpus"]),
         "--relation", "human:child", "--out", str(training)],
        ["train", "--training", str(training), "--model", str(model),
         "--relation", "human:child"],
        ["extract", "--model", str(model), "--corpus", str(paths["test_corpus"]),
         "--relation", "human:child", "--out", str(predictions), *extract_flags],
    ):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return {
        "training": hashlib.sha256(training.read_bytes()).hexdigest(),
        "predictions": hashlib.sha256(predictions.read_bytes()).hexdigest(),
    }


@pytest.mark.parametrize("name", list(WORLDS))
def test_output_digests_match_pins(tmp_path, name):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert run_world(name, tmp_path) == pins[name]
