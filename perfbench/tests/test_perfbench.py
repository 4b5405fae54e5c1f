"""The benchmark's own tests.

Run from the repository root with ``python -m pytest perfbench/tests``; the
full traced ``ci_report`` check (about a minute) is marked ``slow`` and runs
with ``-m slow``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN_DIR = ROOT / "tests" / "golden"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_equal_manifest(trace, section):
    proc = run_bench("--workload", "uvm_cells", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {entry["name"]: entry["unit"] for entry in MANIFEST[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared


def test_manifest_names_workloads_the_benchmark_runs():
    import run

    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "planner_cells", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_golden_comparator_flags_a_one_byte_change(tmp_path):
    goldens = sorted(GOLDEN_DIR.glob("*.json"))
    assert len(goldens) == 16
    for golden in goldens:
        (tmp_path / golden.name).write_bytes(golden.read_bytes()[:-1])  # artifact text, no newline
    assert all(workloads.compare_goldens(tmp_path, GOLDEN_DIR).values())

    victim = tmp_path / goldens[0].name
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    matches = workloads.compare_goldens(tmp_path, GOLDEN_DIR)
    assert [name for name, ok in matches.items() if not ok] == [goldens[0].name]

    victim.unlink()
    assert not workloads.compare_goldens(tmp_path, GOLDEN_DIR)[goldens[0].name]


def _digests(name: str, seed: int) -> list[str]:
    cells = workloads.CELLS[name]
    _, built = workloads.build_cell_workloads(cells)
    _, results = workloads.cold_pass(cells, built, seed)
    return [workloads.result_digest(result) for result in results]


def test_seed_changes_the_noisy_cell_only():
    cells = workloads.CELLS[tracer_mod.PLANNER]
    first, second = _digests(tracer_mod.PLANNER, 0), _digests(tracer_mod.PLANNER, 1)
    changed = [cell.name for cell, a, b in zip(cells, first, second) if a != b]
    assert changed == [cell.name for cell in cells if cell.noisy]
    assert _digests(tracer_mod.UVM, 0) == _digests(tracer_mod.UVM, 1)


@pytest.mark.parametrize("name", [tracer_mod.PLANNER, tracer_mod.UVM])
def test_every_wrapper_fires_on_the_cell_workloads(name, tmp_path):
    outcome = workloads.trace_cells(name, 0, 0.1, tmp_path)
    assert outcome.checks.failures == []
    assert outcome.tracer.unfired(name) == []
    assert outcome.per_layer["experiments.cache.hit_rate"] == 1.0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from repro.core.pressure import MemoryPressureTimeline
    from repro.sim.results import SimulationResult

    benefit = vars(MemoryPressureTimeline)["eviction_benefit"]
    from_dict = vars(SimulationResult)["from_dict"]
    workloads.trace_cells(tracer_mod.UVM, 0, 0.1, tmp_path)
    assert vars(MemoryPressureTimeline)["eviction_benefit"] is benefit
    assert vars(SimulationResult)["from_dict"] is from_dict


def test_renamed_target_fails_loudly():
    tracer = tracer_mod.Tracer()
    missing = (tracer_mod.Target("repro.core.pressure:MemoryPressureTimeline.no_such", "core.pressure", ()),)
    with pytest.raises(AttributeError):
        tracer.install(missing)


def test_self_time_excludes_children():
    tracer = tracer_mod.Tracer()
    tracer.phase = "cold"
    tracer.call("outer", "a", lambda: tracer.call("inner", "b", sum, range(10_000)))
    outer = next(span for span in tracer.spans if span[0] == "outer")
    inner = next(span for span in tracer.spans if span[0] == "inner")
    assert inner[4] == outer[5]  # parent id
    assert tracer.self_seconds[("cold", "a")] == pytest.approx(
        (outer[3] - outer[2]) - (inner[3] - inner[2])
    )


@pytest.mark.slow
def test_ci_report_traced_run(tmp_path):
    outcome = workloads.trace_report(0.1, tmp_path, GOLDEN_DIR)
    assert outcome.checks.failures == []
    metrics = outcome.per_layer
    assert set(metrics) == {entry["name"] for entry in MANIFEST["per_layer"]}
    assert metrics["experiments.cells_executed"] == metrics["experiments.cache.lookups"] > 0
    assert metrics["experiments.cache.hit_rate"] == 1.0
    hits = metrics["core.plan_cache.full_hits"] + metrics["core.plan_cache.fragment_hits"]
    assert 0 <= hits <= metrics["core.plan_cache.lookups"]
