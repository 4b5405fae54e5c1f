"""The benchmark's workloads: what each runs, times and checks.

Every timed pass is *cold*: the plan cache is reset before every cell, and a
cold report starts with an empty workload memo, an empty plan cache and a
fresh result-cache directory. Warm numbers (result cache, plan cache) are
measured separately and never folded into a cold one.

* ``planner_cells`` -- paper-scale G10 cells; planning dominates host time.
  The seed drives the profiling-noise draw of the noisy cell.
* ``uvm_cells`` -- paper-scale UVM baselines; the event loop and the memory
  substrates dominate and planning is ~1%. Seed-independent.
* ``ci_report`` -- a cold serial ``generate_report(scale="ci")`` followed by
  warm re-renders from the result cache it filled. Seed-independent.

All simulated statistics are host-independent counts from an unvalidated
model: the repository holds no hardware reference, so no accuracy is claimed.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.core.plan_cache import get_plan_cache
from repro.experiments.cache import ResultCache
from repro.experiments.harness import build_workload, clear_workload_cache, run_policy
from repro.experiments.reporting import combined_spec, generate_report
from repro.experiments.sweep import SweepCell, SweepRunner
from repro.sim.results import SimulationResult

from tracer import PLANNER, REPORT, UVM, Tracer

#: Profiling error of the noisy planner cell (the paper's §7.6 experiment).
NOISE = 0.1
#: Cold passes a run makes at least, even past ``--seconds``.
MIN_COLD_PASSES = {PLANNER: 3, UVM: 3, REPORT: 1}
#: Warm passes (results served from the result cache) after each cold pass.
WARM_PER_COLD = {PLANNER: 5, UVM: 5, REPORT: 5}
#: Layers whose self time is simulator event-loop work (per simulated event).
EVENT_LOOP_LAYERS = ("sim.executor", "uvm.memory", "uvm.page_table", "uvm.migration", "ssd.device")


@dataclass(frozen=True)
class Cell:
    """One paper-scale simulation: model, batch, policy, and whether its
    planner sees the seeded profiling noise."""

    model: str
    batch_size: int | None
    policy: str
    noisy: bool = False

    @property
    def name(self) -> str:
        batch = self.batch_size if self.batch_size is not None else "default"
        noise = f"+noise{NOISE}" if self.noisy else ""
        return f"{self.model}@{batch}/paper/{self.policy}{noise}"

    def noise(self, seed: int) -> dict:
        if not self.noisy:
            return {"profiling_error": 0.0, "seed": 0}
        return {"profiling_error": NOISE, "seed": seed}

    def sweep_cell(self, seed: int) -> SweepCell:
        return SweepCell(
            model=self.model, policy=self.policy, batch_size=self.batch_size,
            scale="paper", **self.noise(seed),
        )


CELLS: dict[str, tuple[Cell, ...]] = {
    PLANNER: (
        Cell("resnet152", 1536, "g10"),
        Cell("resnet152", 1536, "g10_gds"),
        Cell("senet154", None, "g10"),
        Cell("vit", None, "g10"),
        Cell("resnet152", 1536, "g10", noisy=True),
    ),
    UVM: (
        Cell("resnet152", 1536, "base_uvm"),
        Cell("resnet152", 1536, "deepum"),
        Cell("resnet152", 1536, "flashneuron"),
        Cell("senet154", None, "base_uvm"),
        Cell("senet154", None, "deepum"),
    ),
}


class Checks:
    """Output checks of one run; every failure counts against ``error_rate``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class Outcome:
    """What one workload run measured, checked and wants printed."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)
    lines: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


# -- shared helpers -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_digest(result: SimulationResult) -> str:
    """Hash of every simulated output of a result (host timings excluded)."""
    hasher = hashlib.sha256()
    hasher.update(
        repr(
            (
                result.model_name, result.batch_size, result.policy_name,
                result.ideal_time, result.execution_time, asdict(result.traffic),
                result.ssd_bytes_written, result.ssd_bytes_read,
                result.ssd_write_amplification, result.fault_events,
                result.peak_gpu_bytes, result.peak_host_bytes,
                result.failed, result.failure_reason, result.perf.to_dict(),
            )
        ).encode()
    )
    for t in result.kernel_timings:
        hasher.update(repr((t.index, t.ideal_duration, t.stall, t.start_time)).encode())
    return hasher.hexdigest()


def compare_goldens(out_dir: Path, golden_dir: Path) -> dict[str, bool]:
    """Per golden file: does the artifact text plus a newline match it byte for byte?"""
    return {
        golden.name: (out_dir / golden.name).is_file()
        and (out_dir / golden.name).read_bytes() + b"\n" == golden.read_bytes()
        for golden in sorted(golden_dir.glob("*.json"))
    }


def check_goldens(checks: Checks, out_dir: Path, golden_dir: Path, label: str) -> None:
    matches = compare_goldens(out_dir, golden_dir)
    checks.expect(bool(matches), f"{label}: no golden files under {golden_dir}")
    for name, ok in matches.items():
        checks.expect(ok, f"{label}: {name} differs from its golden")


def sim_counts(results: list[SimulationResult]) -> dict[str, float]:
    """Simulated statistics of one pass; identical on every host."""
    ok = [r for r in results if not r.failed]
    g10 = [r for r in ok if r.policy_name.lower().startswith("g10")] or ok
    written = sum(r.ssd_bytes_written for r in ok)
    return {
        "sim.kernels": sum(r.perf.kernels_executed for r in results),
        "sim.events": sum(r.perf.events_processed for r in results),
        "sim.faults": sum(r.perf.fault_events for r in results),
        "sim.pages_moved": sum(r.perf.pages_moved for r in results),
        "sim.pte_updates": sum(r.perf.pte_updates for r in results),
        "sim.eviction_stalls": sum(r.perf.eviction_stalls for r in results),
        "sim.eviction_stall_s": sum(r.perf.eviction_stall_seconds for r in results),
        "sim.time_s": sum(r.execution_time for r in ok),
        "sim.norm_perf": math.exp(
            sum(math.log(r.normalized_performance) for r in g10) / len(g10)
        ) if g10 else 0.0,
        "ssd.write_amplification": sum(
            r.ssd_write_amplification * r.ssd_bytes_written for r in ok
        ) / written if written else 1.0,
    }


def layer_metrics(tracer: Tracer, iterations: dict[str, int]) -> dict[str, float]:
    """Per-layer self seconds, per iteration of each traced phase."""
    names = {
        "core.eviction_s": "core.eviction",
        "core.pressure_s": "core.pressure",
        "core.bandwidth_s": "core.bandwidth",
        "core.prefetch_s": "core.prefetch",
        "core.vitality_s": "core.vitality",
        "core.plan_cache_s": "core.plan_cache",
        "sim.executor_s": "sim.executor",
        "baselines.policy_s": "baselines.policy",
        "uvm.memory_s": "uvm.memory",
        "uvm.page_table_s": "uvm.page_table",
        "uvm.migration_s": "uvm.migration",
        "ssd.device_s": "ssd.device",
        "sim.results.to_dict_s": "sim.results.to_dict",
        "sim.results.from_dict_s": "sim.results.from_dict",
        "experiments.cache.put_s": "experiments.cache.put",
        "experiments.cache.get_s": "experiments.cache.get",
        "experiments.sweep.plan_s": "experiments.sweep.plan",
        "experiments.sweep.run_s": "experiments.sweep.run",
        "experiments.render_s": "experiments.render",
        "graph.build_s": "graph.build",
        "profiling.profile_s": "profiling.profile",
    }
    metrics = {name: tracer.layer_seconds(layer, iterations) for name, layer in names.items()}
    cold = iterations["cold"]
    metrics["core.pressure.calls"] = tracer.calls[("cold", "core.pressure")] / cold
    metrics["core.bandwidth.calls"] = tracer.calls[("cold", "core.bandwidth")] / cold
    cells = tracer.cell_seconds["cold"]
    metrics["experiments.cell_s.p50"] = percentile(cells, 0.5)
    metrics["experiments.cell_s.p90"] = percentile(cells, 0.9)
    return metrics


def accounting(
    metrics: dict[str, float], tracer: Tracer, cold_passes: int,
    traced_wall: float, untraced_wall: float,
) -> str:
    """Trace overhead, unattributed time and host time per simulated event.

    ``traced_wall`` is the mean traced cold pass, matching the per-pass mean
    of the self times it is compared with. Returns a line giving the
    planner's (``core.*``) share of the cold pass.
    """
    cold = {
        layer: seconds / cold_passes
        for (phase, layer), seconds in tracer.self_seconds.items()
        if phase == "cold" and layer != "experiments.cell"
    }
    loop = sum(cold.get(layer, 0.0) for layer in EVENT_LOOP_LAYERS)
    core = sum(seconds for layer, seconds in cold.items() if layer.startswith("core."))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["unattributed_s"] = traced_wall - sum(cold.values())
    events = metrics["sim.events"]
    metrics["sim.executor.us_per_event"] = loop / events * 1e6 if events else 0.0
    return (
        f"  core.* self time {core:.3f} s of a {traced_wall:.3f} s traced cold pass "
        f"({100 * core / traced_wall:.1f}%)"
    )


# -- cell workloads ---------------------------------------------------------------


def build_cell_workloads(cells: tuple[Cell, ...]) -> tuple[float, dict]:
    """Build (expand, profile, analyze) every workload the cells use, cold."""
    clear_workload_cache()
    start = time.perf_counter()
    built = {
        (cell.model, cell.batch_size): build_workload(cell.model, cell.batch_size, "paper")
        for cell in cells
    }
    return time.perf_counter() - start, built


def cold_pass(
    cells: tuple[Cell, ...], workloads: dict, seed: int, tracer: Tracer | None = None,
    reset_plan_cache: bool = True,
) -> tuple[float, list[SimulationResult]]:
    """Run every cell once; returns the summed cell seconds and the results."""
    seconds, results = 0.0, []
    for cell in cells:
        workload = workloads[(cell.model, cell.batch_size)]
        if reset_plan_cache:
            get_plan_cache().reset()
        start = time.perf_counter()
        if tracer is None:
            result = run_policy(workload, cell.policy, **cell.noise(seed))
        else:
            result = tracer.call(
                cell.name, "experiments.cell", run_policy, workload, cell.policy, **cell.noise(seed)
            )
        seconds += time.perf_counter() - start
        results.append(result)
    return seconds, results


def check_cells(
    checks: Checks, cells: tuple[Cell, ...], workloads: dict,
    results: list[SimulationResult], digests: list[str] | None,
) -> list[str]:
    """Check one pass's results; returns their digests for cross-pass identity."""
    current = [result_digest(r) for r in results]
    for index, (cell, result) in enumerate(zip(cells, results)):
        kernels = workloads[(cell.model, cell.batch_size)].graph.num_kernels
        checks.expect(not result.failed, f"{cell.name}: failed ({result.failure_reason})")
        checks.expect(
            math.isfinite(result.execution_time) and result.execution_time >= result.ideal_time,
            f"{cell.name}: execution time {result.execution_time} below ideal {result.ideal_time}",
        )
        checks.expect(
            result.perf.kernels_executed == kernels,
            f"{cell.name}: {result.perf.kernels_executed} kernels executed, graph has {kernels}",
        )
        if digests is not None:
            checks.expect(current[index] == digests[index], f"{cell.name}: output changed between passes")
    return current


def fill_cache(
    cache: ResultCache, cells: tuple[Cell, ...], workloads: dict,
    results: list[SimulationResult], seed: int,
) -> list[str]:
    """Store one pass's results the way a sweep does; returns their keys."""
    keys = []
    for cell, result in zip(cells, results):
        sweep_cell = cell.sweep_cell(seed)
        key = sweep_cell.cache_key()
        workload = workloads[(cell.model, cell.batch_size)]
        payload = {
            "kind": "simulation",
            "workload": {
                "model": workload.name,
                "batch_size": workload.batch_size,
                "scale": workload.scale,
                "num_kernels": workload.graph.num_kernels,
                "memory_footprint_ratio": workload.memory_footprint_ratio,
            },
            "result": result.to_dict(),
        }
        cache.put(key, payload, cell=sweep_cell.to_dict())
        keys.append(key)
    return keys


def warm_pass(cache: ResultCache, keys: list[str]) -> tuple[float, list[SimulationResult | None]]:
    """Serve every cell from the result cache, as a repeated ``repro run`` does."""
    start = time.perf_counter()
    served = []
    for key in keys:
        payload = cache.get(key)
        served.append(None if payload is None else SimulationResult.from_dict(payload["result"]))
    return time.perf_counter() - start, served


def check_warm(
    checks: Checks, cells: tuple[Cell, ...], served: list, digests: list[str]
) -> int:
    hits = 0
    for cell, result, digest in zip(cells, served, digests):
        checks.expect(result is not None, f"{cell.name}: result cache miss after fill")
        if result is not None:
            hits += 1
            checks.expect(result_digest(result) == digest, f"{cell.name}: cache round trip changed output")
    return hits


def cell_lines(cells: tuple[Cell, ...], digests: list[str]) -> list[str]:
    return [f"  {cell.name:42s} output digest {digest[:16]}" for cell, digest in zip(cells, digests)]


def measure_cells(name: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    """End-to-end metrics. Set-up, cold and warm samples are interleaved so
    that every median spans the whole run, not one stretch of it."""
    cells = CELLS[name]
    out = Outcome()
    checks = out.checks
    cache = ResultCache(tmp / "cache")
    builds: list[float] = []
    passes: list[float] = []
    warm: list[float] = []
    digests = keys = None
    start = time.perf_counter()
    while len(passes) < MIN_COLD_PASSES[name] or time.perf_counter() - start < seconds:
        build_seconds, workloads = build_cell_workloads(cells)
        builds.append(build_seconds)
        pass_seconds, results = cold_pass(cells, workloads, seed)
        passes.append(pass_seconds)
        digests = check_cells(checks, cells, workloads, results, digests)
        if keys is None:
            keys = fill_cache(cache, cells, workloads, results, seed)
        for _ in range(WARM_PER_COLD[name]):
            warm_seconds, served = warm_pass(cache, keys)
            warm.append(warm_seconds)
            check_warm(checks, cells, served, digests)
    stats = cache.stats()
    out.end_to_end = {
        "setup_s": statistics.median(builds),
        "pass_s": statistics.median(passes),
        "warm_s": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb(),
        "cache_kb_per_cell": stats["bytes"] / stats["entries"] / 1000.0,
    }
    out.lines = cell_lines(cells, digests)
    out.lines.append(f"  {len(builds)} set-ups, {len(passes)} cold passes, {len(warm)} warm passes")
    return out


def trace_cells(name: str, seed: int, seconds: float, tmp: Path) -> Outcome:
    """Per-layer metrics from traced passes, after untraced reference passes."""
    cells = CELLS[name]
    out = Outcome()
    checks = out.checks
    start = time.perf_counter()
    _, workloads = build_cell_workloads(cells)
    passes, digests = [], None
    for _ in range(2):
        pass_seconds, results = cold_pass(cells, workloads, seed)
        passes.append(pass_seconds)
        digests = check_cells(checks, cells, workloads, results, digests)
    # The plan cache left warm: a priming pass fills it, the next is timed.
    # Plan-cache hits must not change any output.
    cold_pass(cells, workloads, seed, reset_plan_cache=False)
    warm_plan_seconds, results = cold_pass(cells, workloads, seed, reset_plan_cache=False)
    check_cells(checks, cells, workloads, results, digests)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        _, workloads = build_cell_workloads(cells)
        tracer.phase = "cold"
        traced, plan_stats = [], {"full_hits": 0, "fragment_hits": 0, "misses": 0}
        while not traced or time.perf_counter() - start < seconds:
            pass_seconds, results = cold_pass(cells, workloads, seed, tracer=tracer)
            traced.append(pass_seconds)
            for result in results:
                for counter, count in result.perf.plan_cache.items():
                    plan_stats[counter] += count
        tracer.phase = "fill"
        cache = ResultCache(tmp / "cache")
        keys = fill_cache(cache, cells, workloads, results, seed)
        tracer.phase = "warm"
        _, served = warm_pass(cache, keys)
    finally:
        tracer.uninstall()
    check_cells(checks, cells, workloads, results, digests)
    hits = check_warm(checks, cells, served, digests)
    missing = tracer.unfired(name)
    checks.expect(not missing, f"wrappers never fired: {missing}")

    n = len(traced)
    metrics = layer_metrics(tracer, {"setup": 1, "cold": n, "fill": 1, "warm": 1})
    metrics.update(sim_counts(results))
    lookups = sum(plan_stats.values()) / n
    hits_per_pass = (plan_stats["full_hits"] + plan_stats["fragment_hits"]) / n
    metrics.update(
        {
            "core.plan_cache.lookups": lookups,
            "core.plan_cache.full_hits": plan_stats["full_hits"] / n,
            "core.plan_cache.fragment_hits": plan_stats["fragment_hits"] / n,
            "core.plan_cache.hit_rate": hits_per_pass / lookups if lookups else 0.0,
            "core.plan_cache.warm_pass_s": warm_plan_seconds,
            "experiments.cache.lookups": len(keys),
            "experiments.cache.hit_rate": hits / len(keys),
            "experiments.cells_executed": len(cells),
        }
    )
    out.per_layer = metrics
    out.lines = cell_lines(cells, digests)
    out.lines.append(accounting(metrics, tracer, n, sum(traced) / n, statistics.median(passes)))
    out.lines.append(f"  {len(passes)} untraced and {n} traced cold passes")
    out.tracer = tracer
    return out


# -- ci_report ---------------------------------------------------------------------


def build_report_workloads() -> float:
    """Build every workload the CI report grid uses, from an empty memo."""
    clear_workload_cache()
    start = time.perf_counter()
    for cell in combined_spec("ci").cells:
        cell = cell.resolved()
        build_workload(cell.model, cell.batch_size, cell.scale)
    return time.perf_counter() - start


def report_pass(
    cache: ResultCache, out_dir: Path, tracer: Tracer | None = None
) -> tuple[float, dict]:
    runner = SweepRunner(jobs=None, cache=cache)
    start = time.perf_counter()
    if tracer is None:
        manifest = generate_report(scale="ci", runner=runner, output_dir=out_dir)
    else:
        manifest = tracer.call(
            "generate_report", "experiments.render", generate_report,
            scale="ci", runner=runner, output_dir=out_dir,
        )
    return time.perf_counter() - start, manifest


def cold_report(
    tmp: Path, label: str, tracer: Tracer | None = None
) -> tuple[float, dict, ResultCache, Path]:
    """One cold serial report: empty memo, empty plan cache, fresh cache dir."""
    run_dir = tmp / label
    shutil.rmtree(run_dir, ignore_errors=True)
    cache = ResultCache(run_dir / "cache")
    clear_workload_cache()
    get_plan_cache().reset()
    seconds, manifest = report_pass(cache, run_dir / "report", tracer)
    return seconds, manifest, cache, run_dir


def provenance_keys(manifest: dict, status: str | None = None) -> set[str]:
    return {
        row["key"]
        for figure in manifest["figures"]
        for row in figure["provenance"]
        if status is None or row["status"] == status
    }


def check_report(
    checks: Checks, manifest: dict, out_dir: Path, golden_dir: Path, label: str, warm: bool
) -> None:
    check_goldens(checks, out_dir, golden_dir, label)
    recomputed = manifest["totals"]["recomputed"]
    if warm:
        checks.expect(recomputed == 0, f"{label}: {recomputed} cells recomputed from a warm cache")
    else:
        checks.expect(recomputed > 0, f"{label}: nothing recomputed by a cold report")


def cold_report_checked(
    checks: Checks, tmp: Path, golden_dir: Path, label: str, tracer: Tracer | None = None
) -> tuple[float, dict, ResultCache, Path]:
    """A cold report whose artifacts and cache contents are checked."""
    seconds, manifest, cache, run_dir = cold_report(tmp, label, tracer)
    check_report(checks, manifest, run_dir / "report", golden_dir, f"{label} report", warm=False)
    entries = cache.stats()["entries"]
    executed = len(provenance_keys(manifest, "recomputed"))
    checks.expect(entries == executed, f"{label} report: cache holds {entries} entries, {executed} cells ran")
    return seconds, manifest, cache, run_dir


def measure_report(seconds: float, tmp: Path, golden_dir: Path) -> Outcome:
    """End-to-end metrics: cold reports, each followed by warm re-renders."""
    out = Outcome()
    checks = out.checks
    builds: list[float] = []
    colds: list[float] = []
    warm: list[float] = []
    start = time.perf_counter()
    while len(colds) < MIN_COLD_PASSES[REPORT] or time.perf_counter() - start < seconds:
        builds.append(build_report_workloads())
        cold_seconds, manifest, cache, run_dir = cold_report_checked(checks, tmp, golden_dir, "cold")
        colds.append(cold_seconds)
        for index in range(WARM_PER_COLD[REPORT]):
            out_dir = run_dir / f"warm{index}"
            warm_seconds, warm_manifest = report_pass(cache, out_dir)
            warm.append(warm_seconds)
            check_report(checks, warm_manifest, out_dir, golden_dir, "warm report", warm=True)
    stats = cache.stats()
    out.end_to_end = {
        "setup_s": statistics.median(builds),
        "pass_s": statistics.median(colds),
        "warm_s": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb(),
        "cache_kb_per_cell": stats["bytes"] / stats["entries"] / 1000.0,
    }
    goldens = len(compare_goldens(run_dir / "report", golden_dir))
    out.lines.append(
        f"  {len(provenance_keys(manifest, 'recomputed'))} cells executed per cold report; "
        f"{len(colds)} cold and {len(warm)} warm reports, {goldens} goldens compared in each"
    )
    return out


def trace_report(seconds: float, tmp: Path, golden_dir: Path) -> Outcome:
    """Per-layer metrics from one traced cold report and one traced warm one."""
    out = Outcome()
    checks = out.checks
    build_report_workloads()
    untraced_seconds, *_ = cold_report_checked(checks, tmp, golden_dir, "cold")

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        build_report_workloads()
        tracer.phase = "cold"
        traced_seconds, manifest, cache, run_dir = cold_report_checked(
            checks, tmp, golden_dir, "traced", tracer
        )
        plan_stats = replace(get_plan_cache().stats)
        tracer.phase = "warm"
        warm_dir = run_dir / "warm"
        _, warm_manifest = report_pass(cache, warm_dir, tracer)
    finally:
        tracer.uninstall()
    check_report(checks, warm_manifest, warm_dir, golden_dir, "traced warm report", warm=True)
    missing = tracer.unfired(REPORT)
    checks.expect(not missing, f"wrappers never fired: {missing}")

    results = []
    for path in sorted(cache.root.glob("*/*.json")):
        with path.open("r", encoding="utf-8") as fh:
            payload = json.load(fh)["payload"]
        if payload.get("kind") == "simulation":
            results.append(SimulationResult.from_dict(payload["result"]))
    metrics = layer_metrics(tracer, {"setup": 1, "cold": 1, "warm": 1})
    metrics.update(sim_counts(results))
    all_keys = provenance_keys(warm_manifest)
    metrics.update(
        {
            "core.plan_cache.lookups": plan_stats.lookups,
            "core.plan_cache.full_hits": plan_stats.full_hits,
            "core.plan_cache.fragment_hits": plan_stats.fragment_hits,
            "core.plan_cache.hit_rate": (
                plan_stats.hits / plan_stats.lookups if plan_stats.lookups else 0.0
            ),
            # Measured on the cell workloads only: a warm-plan report would
            # cost one more full report.
            "core.plan_cache.warm_pass_s": 0.0,
            "experiments.cache.lookups": len(all_keys),
            "experiments.cache.hit_rate": (
                len(provenance_keys(warm_manifest, "warm")) / len(all_keys)
            ),
            "experiments.cells_executed": len(provenance_keys(manifest, "recomputed")),
        }
    )
    out.per_layer = metrics
    out.lines.append(accounting(metrics, tracer, 1, traced_seconds, untraced_seconds))
    out.lines.append(
        f"  plan cache: {plan_stats.lookups} lookups, {plan_stats.full_hits} full hits, "
        f"{plan_stats.fragment_hits} fragment hits; "
        f"{metrics['experiments.cells_executed']} cells executed cold"
    )
    out.tracer = tracer
    return out
