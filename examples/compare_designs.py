#!/usr/bin/env python3
"""Compare every GPU-memory design across the paper's five workloads.

Runs the Figure 11 experiment (plus the Figure 14 traffic breakdown and the
§7.7 SSD-lifetime estimate for G10) at CI scale and prints the result tables.
Per-design numbers come from the :class:`repro.Scenario` API; the figure grid
itself runs through the experiment registry. Pass ``--paper`` to run the full
paper-scale workloads instead (a few minutes), ``--jobs N`` to fan the sweep
out over worker processes, and ``--cache`` to reuse previously computed cells
from ``.repro_cache/``.

Run with:  python examples/compare_designs.py [--paper] [--jobs N] [--cache]
"""

import argparse

from repro import Scenario
from repro.analysis import estimate_ssd_lifetime, traffic_breakdown
from repro.experiments import ResultCache, SweepRunner, format_table, get_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true", help="run the full paper-scale workloads")
    parser.add_argument("--jobs", type=int, default=None, help="worker processes for the sweep")
    parser.add_argument("--cache", action="store_true", help="persist results under .repro_cache/")
    args = parser.parse_args()
    scale = "paper" if args.paper else "ci"
    runner = SweepRunner(jobs=args.jobs, cache=ResultCache() if args.cache else None)

    print(f"Running the end-to-end comparison at {scale} scale...\n")
    results = get_experiment("11").render(scale=scale, runner=runner)

    rows = []
    for model, values in results.items():
        row = {"model": model, "M%": round(100 * values.pop("memory_footprint_ratio"))}
        row.update({name: round(norm, 3) for name, norm in values.items()})
        rows.append(row)
    print("Normalized training performance (1.0 = infinite GPU memory):")
    print(format_table(rows))

    print("\nMigration traffic and SSD lifetime under full G10:")
    lifetime_rows = []
    for model in results:
        outcome = Scenario(model, scale=scale).on_policy("g10").run(runner=runner)
        breakdown = traffic_breakdown(outcome.result)
        estimate = estimate_ssd_lifetime(outcome.result, outcome.scenario.config().ssd)
        lifetime_rows.append(
            {
                "model": model,
                "gpu_ssd_gb": round(breakdown.gpu_ssd_gb, 1),
                "gpu_host_gb": round(breakdown.gpu_host_gb, 1),
                "ssd_lifetime_years": round(min(estimate.lifetime_years, 1000.0), 1),
                "served_from_cache": outcome.cached,
            }
        )
    print(format_table(lifetime_rows))


if __name__ == "__main__":
    main()
