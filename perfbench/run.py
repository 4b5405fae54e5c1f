"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload planner_cells --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding every
``end_to_end`` metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every ``per_layer`` metric instead, measured by wrapping each simulator
layer's entry points (see ``tracer.py``), and the spans are written as
Chrome trace-event JSON to ``.perfbench_run/trace-<workload>.json``.

The simulator is imported from ``src/`` of the checkout. Temporary output
(result caches, report artifacts) goes to ``.perfbench_run/`` in the
checkout and is deleted at exit. The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("planner_cells", "uvm_cells", "ci_report")
#: Other names of ci_report's metrics, printed alongside them.
REPORT_ALIASES = {"pass_s": "report_cold_s", "warm_s": "report_warm_s"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    golden_dir = ROOT / "tests" / "golden"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "ci_report" and not golden_dir.is_dir():
        print(f"perfbench: no golden artifacts under {golden_dir}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    # Imports are part of set-up: the simulator (and numpy) load here.
    import_start = time.perf_counter()
    sys.path.insert(0, str(src))
    import workloads
    import_seconds = time.perf_counter() - import_start

    # The noise model takes 32-bit seeds.
    seed = args.seed % 2**32
    run_dir = ROOT / ".perfbench_run"
    tmp = run_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "ci_report":
            run = workloads.trace_report if args.trace else workloads.measure_report
            outcome = run(args.seconds, tmp, golden_dir)
        else:
            run = workloads.trace_cells if args.trace else workloads.measure_cells
            outcome = run(args.workload, seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = outcome.per_layer
        trace_path = run_dir / f"trace-{args.workload}.json"
        outcome.tracer.write_chrome_trace(trace_path, {"workload": args.workload, "seed": args.seed})
    else:
        metrics = dict(outcome.end_to_end)
        metrics["setup_s"] += import_seconds

    names = [entry["name"] for entry in declared]
    if set(metrics) != set(names):
        print(
            f"perfbench: measured metrics {sorted(set(metrics) ^ set(names))} "
            "disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 3

    checks = outcome.checks
    failed = len(checks.failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in outcome.lines:
        print(line)
    for entry in declared:
        name = entry["name"]
        alias = REPORT_ALIASES.get(name) if args.workload == "ci_report" else None
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:40s} {metrics[name]:.6g} {entry['unit']}")
    print(f"  {'error_rate':40s} {failed / checks.attempted:.6g} ({failed}/{checks.attempted} checks failed)")
    for message in checks.failures:
        print(f"  FAILED: {message}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
