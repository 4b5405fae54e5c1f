"""Paper-scale output pins: the full ``to_dict()`` of ten paper-scale cells.

The goldens pin CI-scale figures only. These digests pin the ten paper-scale
cells the benchmark times: five G10 planner cells (one planning with seeded
profiling noise, seed 0) and five UVM baseline cells. An event-loop or
planner change that moves any paper-scale output, down to the last float bit
or counter, fails here. A change that moves them on purpose rewrites the file
together with the goldens:

    python -m pytest -m slow tests/test_paper_digests.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.harness import build_workload, clear_workload_cache, run_policy

DIGESTS = Path(__file__).resolve().parent / "paper_digests.json"

#: (model, batch size, policy, profiling error); the noisy cell uses seed 0.
CELLS = (
    ("resnet152", 1536, "g10", 0.0),
    ("resnet152", 1536, "g10_gds", 0.0),
    ("senet154", None, "g10", 0.0),
    ("vit", None, "g10", 0.0),
    ("resnet152", 1536, "g10", 0.1),
    ("resnet152", 1536, "base_uvm", 0.0),
    ("resnet152", 1536, "deepum", 0.0),
    ("resnet152", 1536, "flashneuron", 0.0),
    ("senet154", None, "base_uvm", 0.0),
    ("senet154", None, "deepum", 0.0),
)


def cell_name(model: str, batch_size: int | None, policy: str, noise: float) -> str:
    batch = batch_size if batch_size is not None else "default"
    return f"{model}@{batch}/paper/{policy}" + (f"+noise{noise}" if noise else "")


def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.slow
def test_paper_scale_cells_match_their_digests(update_goldens):
    try:
        actual = {
            cell_name(model, batch, policy, noise): digest(
                run_policy(
                    build_workload(model, batch, "paper"), policy, profiling_error=noise
                ).to_dict()
            )
            for model, batch, policy, noise in CELLS
        }
    finally:
        clear_workload_cache()
    if update_goldens:
        DIGESTS.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert actual == expected
