"""Golden-file regression suite: every figure/table, bit-for-bit.

Each experiment in :data:`repro.experiments.reporting.EXPERIMENTS` is rendered
at CI scale and its canonical JSON serialization compared — as *text*, so any
drift down to the last float bit fails — against the committed file under
``tests/golden/``. This pins the paper's curves: an edit to the simulator,
profiler, vitality analyzer or policies that changes any figure must
consciously regenerate the goldens with

    python -m pytest tests/test_golden.py --update-goldens

and the resulting diff is reviewable in the PR.

The same serialization (``jsonify`` + ``json.dumps(sort_keys=True)``) is used
by the CLI's ``--output`` artifacts and ``repro report``, so these goldens
also pin the on-disk artifact format.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import jsonify
from repro.experiments.reporting import EXPERIMENTS, artifact_name

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_text(payload) -> str:
    """The canonical serialization goldens are stored and compared in."""
    return json.dumps(jsonify(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
def test_golden(experiment, golden_runner, update_goldens):
    path = GOLDEN_DIR / f"{artifact_name(experiment.id)}.json"
    actual = golden_text(experiment.render(scale="ci", runner=golden_runner))
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(actual, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; generate it with "
        "`python -m pytest tests/test_golden.py --update-goldens`"
    )
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"{experiment.title} drifted from {path.name}. If the change is "
        "intentional, regenerate with --update-goldens and review the diff."
    )


def test_goldens_are_committed_for_every_experiment():
    """A new experiment must ship its golden in the same PR, and a removed
    one must take its golden with it: perfbench compares every ``*.json``
    under ``tests/golden/`` with a rendered report, so an orphan fails there."""
    expected = {f"{artifact_name(e.id)}.json" for e in EXPERIMENTS}
    committed = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert not expected - committed, f"experiments without goldens: {sorted(expected - committed)}"
    assert not committed - expected, f"goldens without experiments: {sorted(committed - expected)}"


def test_golden_serialization_is_deterministic(golden_runner):
    """Rendering twice (second time fully from cache) is bit-identical."""
    experiment = next(e for e in EXPERIMENTS if e.id == "12")
    first = golden_text(experiment.render(scale="ci", runner=golden_runner))
    second = golden_text(experiment.render(scale="ci", runner=golden_runner))
    assert golden_runner.last_stats["executed"] == 0
    assert first == second
