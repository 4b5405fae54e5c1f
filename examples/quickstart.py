#!/usr/bin/env python3
"""Quickstart: plan and simulate smart tensor migrations for one workload.

Builds a BERT training iteration whose footprint exceeds the (scaled) GPU
memory, runs G10's tensor vitality analysis and migration planner, then
simulates the iteration under the full G10 design and under plain UVM demand
paging — the comparison the paper's Figure 11 makes per workload — through
the :class:`repro.Scenario` API. A :class:`repro.TraceRecorder` observer
attached to the G10 run shows the new instrumentation hooks: migration
counts without subclassing any policy.

Run with:  python examples/quickstart.py
"""

from repro import Scenario, TraceRecorder
from repro.core import MigrationPlanner
from repro.experiments import build_workload


def main() -> None:
    # CI scale keeps the run under a second while preserving the paper's
    # memory-pressure regime; use .at_scale("paper") for the full workloads.
    scenario = Scenario("bert", scale="ci")
    workload = build_workload(scenario.model, scale=scenario.scale)
    print(f"Workload: {workload.graph.name}")
    print(f"  kernels per iteration : {workload.graph.num_kernels}")
    print(f"  peak memory footprint : {100 * workload.memory_footprint_ratio:.0f}% of GPU memory")
    print(f"  config fingerprint    : {scenario.config().fingerprint()[:12]}")

    planner = MigrationPlanner(workload.config)
    planning = planner.plan_from_report(workload.report)
    plan = planning.plan
    print("\nSmart tensor migration plan (compile time):")
    print(f"  pre-evictions planned : {plan.num_evictions}")
    print(f"  bytes staged to SSD   : {plan.bytes_to(type(plan.evictions[0].destination).SSD) / 1e9:.1f} GB"
          if plan.evictions else "  bytes staged to SSD   : 0.0 GB")
    print(f"  projected peak usage  : {plan.planned_peak_pressure / 1e9:.1f} GB "
          f"(capacity {plan.gpu_capacity_bytes / 1e9:.1f} GB)")

    print("\nSimulated end-to-end execution of one training iteration:")
    for policy in ("ideal", "base_uvm", "deepum", "g10"):
        outcome = scenario.on_policy(policy).run()
        print(
            f"  {outcome.policy_name:10s} "
            f"time={outcome.execution_time:8.3f} s  "
            f"normalized={outcome.normalized_performance:5.2f}  "
            f"stalls={100 * outcome.stall_fraction:5.1f}%"
        )

    trace = TraceRecorder()
    scenario.on_policy("g10").run(observers=(trace,))
    print("\nObserved G10 run (SimObserver hooks, no policy subclassing):")
    print(f"  kernel launches : {trace.count('kernel_start')}")
    print(f"  prefetches      : {len(trace.migrations('prefetch'))}")
    print(f"  evictions       : {len(trace.migrations('eviction'))}")
    print(f"  demand faults   : {len(trace.migrations('fault'))}")


if __name__ == "__main__":
    main()
