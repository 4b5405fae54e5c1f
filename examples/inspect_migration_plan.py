#!/usr/bin/env python3
"""Inspect a G10 migration plan and the instrumented GPU program it produces.

Reproduces the workflow of §4.2-§4.4 on a ResNet-style workload: tensor
vitality analysis, smart eviction scheduling, eager prefetch rescheduling, and
finally the instrumented program of Figure 9 (kernel launches interleaved with
``g10_alloc`` / ``g10_free`` / ``g10_pre_evict`` / ``g10_prefetch``).

Run with:  python examples/inspect_migration_plan.py
"""

from collections import Counter

from repro.core import MigrationPlanner, instrument_program
from repro.core.plan import MigrationDestination
from repro.experiments import build_workload


def main() -> None:
    workload = build_workload("resnet152", scale="ci")
    report = workload.report

    print(f"Workload: {workload.graph.name}")
    print(f"  tensors tracked        : {len(report.usages)}")
    print(f"  inactive periods found : {len(report.periods)}")
    longest = max(report.periods, key=report.period_duration)
    print(
        f"  longest inactive period: tensor {longest.tensor_id} "
        f"({longest.size_bytes / 1e6:.1f} MB) stays cold for "
        f"{report.period_duration(longest) * 1e3:.1f} ms"
    )

    planning = MigrationPlanner(workload.config).plan_from_report(report)
    plan = planning.plan
    destinations = Counter(e.destination for e in plan.evictions)
    print("\nMigration plan:")
    print(f"  pre-evictions : {plan.num_evictions} "
          f"(SSD: {destinations.get(MigrationDestination.SSD, 0)}, "
          f"host: {destinations.get(MigrationDestination.HOST, 0)})")
    print(f"  prefetches    : {plan.num_prefetches}")
    print(f"  fits in GPU   : {plan.fits_in_gpu}")
    eager = sum(1 for p in plan.prefetches if p.issue_slot < p.latest_safe_slot)
    print(f"  prefetches moved earlier by the smart prefetcher: {eager}")

    program = instrument_program(workload.graph, report, plan)
    print(f"\nInstrumented program: {len(program.lines)} lines, "
          f"{program.num_instructions} g10_* instructions. First 30 lines:\n")
    print("\n".join(program.lines[:30]))


if __name__ == "__main__":
    main()
