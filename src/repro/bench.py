"""Core-simulator microbenchmark harness — the engine behind ``repro bench``.

The repository's figure-level benchmarks time whole experiments; this module
times the *simulation core* on a fixed set of representative cells (small and
medium CI-scale cells, paper-scale cells, and the paper-scale batch-sweep
headline cell) and records the trajectory in ``BENCH_core.json`` at the repo
root, so every future PR can show what it did to the hot path.

Methodology: the workload (graph expansion + profiling) is built and memoized
*before* timing starts — the benchmark isolates the simulator core (planning +
event-loop replay), which is where the per-cell cost of a sweep lives. Each
cell is warmed once and then timed ``repeats`` times; the minimum is recorded
(the standard way to suppress scheduler noise for CPU-bound loops).

``PRE_REFACTOR_SECONDS`` pins the numbers measured immediately before the
extent-based core refactor (same machine, same methodology), so the recorded
speedups state exactly what that refactor bought.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigurationError
from .experiments.harness import build_workload, run_policy

#: Benchmark-format version (bump when the payload layout changes).
BENCH_SCHEMA_VERSION = 1

#: Default artifact path, repo-root relative.
DEFAULT_BENCH_PATH = "BENCH_core.json"

#: Regression gate: a timed cell slower than ``threshold`` x its committed
#: baseline fails ``repro bench --check``.
DEFAULT_REGRESSION_THRESHOLD = 2.0

#: Cells whose baseline is under this noise floor never gate a --check run:
#: millisecond-scale cells are dominated by host jitter (and by machine-speed
#: differences between the baseline recorder and a CI runner), not by
#: simulator work.
MIN_GATED_SECONDS = 0.05


@dataclass(frozen=True)
class BenchCell:
    """One timed simulation: a (model, batch, scale, policy) cell plus a tier."""

    tier: str
    model: str
    batch_size: int | None
    scale: str
    policy: str

    @property
    def name(self) -> str:
        batch = self.batch_size if self.batch_size is not None else "default"
        return f"{self.model}@{batch}/{self.scale}/{self.policy}"


#: Representative cells: small/medium/paper-scale across bert/vit/resnet x
#: policies, plus the paper-scale batch-sweep headline cell (the slowest cell
#: of the Figure 15 grid for a Table-1 model).
CORE_CELLS: tuple[BenchCell, ...] = (
    BenchCell("small", "bert", None, "ci", "g10"),
    BenchCell("small", "vit", None, "ci", "base_uvm"),
    BenchCell("medium", "resnet152", None, "ci", "g10"),
    BenchCell("medium", "bert", None, "paper", "g10"),
    BenchCell("paper", "vit", None, "paper", "g10"),
    BenchCell("paper", "resnet152", None, "paper", "deepum"),
    BenchCell("paper-batch-sweep", "resnet152", 1536, "paper", "g10"),
)

#: The acceptance-criterion cell: the paper-scale batch-sweep simulation.
HEADLINE_CELL = "resnet152@1536/paper/g10"

#: Tiers timed by ``repro bench --quick`` (the CI smoke job).
QUICK_TIERS = ("small", "medium")

#: Wall seconds per cell measured on the pre-refactor core (min of 3, same
#: methodology) immediately before the extent/event-loop refactor landed.
PRE_REFACTOR_SECONDS: dict[str, float] = {
    "bert@default/ci/g10": 0.0248,
    "vit@default/ci/base_uvm": 0.0063,
    "resnet152@default/ci/g10": 0.1053,
    "bert@default/paper/g10": 0.1764,
    "vit@default/paper/g10": 0.2054,
    "resnet152@default/paper/deepum": 0.1444,
    "resnet152@1536/paper/g10": 0.9524,
}


def bench_cells(quick: bool = False) -> tuple[BenchCell, ...]:
    """The cells a run times (``quick`` keeps the CI-smoke tiers only)."""
    if quick:
        return tuple(cell for cell in CORE_CELLS if cell.tier in QUICK_TIERS)
    return CORE_CELLS


def time_cell(cell: BenchCell, repeats: int = 3) -> dict:
    """Time one cell: build (untimed), warm once, report the min of ``repeats``."""
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    workload = build_workload(cell.model, batch_size=cell.batch_size, scale=cell.scale)
    result = run_policy(workload, cell.policy)  # warm-up, also checked below
    plan_cache = dict(result.perf.plan_cache)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_policy(workload, cell.policy)
        samples.append(time.perf_counter() - start)
        for counter, count in result.perf.plan_cache.items():
            plan_cache[counter] = plan_cache.get(counter, 0) + count
    seconds = min(samples)
    record = {
        "tier": cell.tier,
        "model": cell.model,
        "batch_size": workload.batch_size,
        "scale": cell.scale,
        "policy": cell.policy,
        "seconds": seconds,
        "samples": samples,
        "simulated_seconds": result.execution_time,
        "normalized_performance": result.normalized_performance,
        "perf": result.perf.to_dict(),
        "phase_seconds": dict(result.perf.phase_seconds),
        # Warm-up + timed repeats together: the warm-up's planning miss
        # populates the plan-fragment cache, so the timed runs should be hits.
        "plan_cache": plan_cache,
    }
    baseline = PRE_REFACTOR_SECONDS.get(cell.name)
    if baseline is not None:
        record["pre_refactor_seconds"] = baseline
        record["speedup_vs_pre_refactor"] = baseline / seconds if seconds > 0 else None
    return record


def run_bench(
    quick: bool = False,
    repeats: int = 3,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Time every benchmark cell and assemble the ``BENCH_core.json`` payload."""
    cells: dict[str, dict] = {}
    for cell in bench_cells(quick):
        if progress is not None:
            progress(f"bench {cell.name} [{cell.tier}]")
        cells[cell.name] = time_cell(cell, repeats=repeats)
    payload: dict = {
        "schema": BENCH_SCHEMA_VERSION,
        "repro_version": _version(),
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cells": cells,
        "pre_refactor_seconds": dict(PRE_REFACTOR_SECONDS),
    }
    headline = cells.get(HEADLINE_CELL)
    if headline is not None:
        payload["headline"] = {
            "cell": HEADLINE_CELL,
            "seconds": headline["seconds"],
            "pre_refactor_seconds": PRE_REFACTOR_SECONDS[HEADLINE_CELL],
            "speedup_vs_pre_refactor": headline.get("speedup_vs_pre_refactor"),
        }
    return payload


def write_bench(payload: dict, path: str | Path = DEFAULT_BENCH_PATH) -> Path:
    """Write a benchmark payload as pretty, stable JSON.

    An unwritable ``path`` (a missing directory, a directory, a read-only
    file) raises :class:`~repro.errors.ConfigurationError`.
    """
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write bench payload {path}: {exc}") from exc
    return path


def load_bench(path: str | Path) -> dict:
    """Read a previously written benchmark payload."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


#: Fields every cell record of a loaded payload must carry before the CLI
#: reports it. ``samples``/``phase_seconds`` are the ones truncated payloads
#: most often lose (hand-edited artifacts, payloads from aborted runs).
_REQUIRED_CELL_FIELDS = ("tier", "seconds", "samples", "perf", "phase_seconds")


def validate_payload(payload: dict, source: str | Path) -> dict:
    """Check that a loaded payload has the shape the reporting paths need.

    ``repro bench --from`` re-reads artifacts written by earlier runs (or by
    other machines); a truncated or hand-edited payload used to surface as a
    bare ``KeyError`` deep in the table renderer. This turns the problem into
    a :class:`ConfigurationError` that names the file, the cell and the
    missing field. Returns the payload unchanged on success.
    """
    cells = payload.get("cells")
    if not isinstance(cells, dict):
        raise ConfigurationError(f"bench payload {source} has no 'cells' table")
    for name, record in cells.items():
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"bench payload {source}: cell {name!r} is not a record"
            )
        for field in _REQUIRED_CELL_FIELDS:
            if field not in record:
                raise ConfigurationError(
                    f"bench payload {source}: cell {name!r} lacks {field!r} "
                    "(truncated or pre-phase-recording artifact; re-run "
                    "`repro bench` to regenerate it)"
                )
    return payload


def plan_cache_summary(payload: dict) -> dict[str, int]:
    """Aggregate plan-fragment cache counters across a payload's cells."""
    totals = {"full_hits": 0, "fragment_hits": 0, "misses": 0}
    for record in payload.get("cells", {}).values():
        for counter, count in (record.get("plan_cache") or {}).items():
            totals[counter] = totals.get(counter, 0) + count
    return totals


def check_regressions(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_seconds: float = MIN_GATED_SECONDS,
) -> list[str]:
    """Compare two payloads; returns a message per cell slower than
    ``threshold`` x its baseline.

    Only cells present in both payloads gate, and only when the baseline is
    at least ``min_seconds`` — sub-noise-floor cells carry more host jitter
    than signal and are reported in the table but never fail the check.
    """
    if not threshold > 1.0:
        raise ConfigurationError(f"threshold must be > 1.0, got {threshold}")
    messages = []
    baseline_cells = baseline.get("cells", {})
    for name, record in current.get("cells", {}).items():
        reference = baseline_cells.get(name)
        if reference is None:
            continue
        before, after = reference["seconds"], record["seconds"]
        if before < min_seconds:
            continue
        if before > 0 and after > threshold * before:
            culprit = _phase_culprit(reference, record)
            messages.append(
                f"{name}: {after:.4f}s vs baseline {before:.4f}s "
                f"({after / before:.2f}x > {threshold:.1f}x threshold)" + culprit
            )
    return messages


def _phase_culprit(reference: dict, record: dict) -> str:
    """Name the phase that grew the most between two records of one cell.

    Returns a `` — slowest-growing phase: ...`` suffix so a regression message
    points at planning vs. execution instead of just the total, or an empty
    string when either payload predates per-phase recording.
    """
    before_phases = reference.get("phase_seconds") or {}
    after_phases = record.get("phase_seconds") or {}
    shared = sorted(set(before_phases) & set(after_phases))
    if not shared:
        return ""
    phase = max(shared, key=lambda name: after_phases[name] - before_phases[name])
    return (
        f" — slowest-growing phase: {phase} "
        f"({before_phases[phase]:.4f}s → {after_phases[phase]:.4f}s)"
    )


def profile_rows(payload: dict) -> list[dict]:
    """Per-cell, per-phase breakdown rows for ``repro bench --profile``.

    One row per (cell, phase) from the recorded ``phase_seconds``, with each
    phase's share of the cell's phase total — the table ROADMAP asks for so a
    regression names a phase (planning vs. event-loop execution) rather than
    just a total.
    """
    rows = []
    for name, record in payload.get("cells", {}).items():
        phases = record.get("phase_seconds") or {}
        total = sum(phases.values())
        for phase, seconds in sorted(phases.items()):
            rows.append(
                {
                    "cell": name,
                    "phase": phase,
                    "seconds": seconds,
                    "share": seconds / total if total > 0 else 0.0,
                }
            )
    return rows


def bench_rows(payload: dict) -> list[dict]:
    """Flatten a payload into table rows for the CLI."""
    rows = []
    for name, record in payload.get("cells", {}).items():
        rows.append(
            {
                "cell": name,
                "tier": record["tier"],
                "seconds": record["seconds"],
                "pre_refactor": record.get("pre_refactor_seconds", float("nan")),
                "speedup": record.get("speedup_vs_pre_refactor", float("nan")),
                "pages_moved": record["perf"]["pages_moved"],
                "events": record["perf"]["events_processed"],
            }
        )
    return rows


def _version() -> str:
    from . import __version__

    return __version__
