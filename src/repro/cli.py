"""``python -m repro`` — reproduce the paper's figures and tables from the shell.

Subcommands:

* ``run``    — simulate one (model, policy) cell and print its summary;
  ``--list-policies``/``--list-models`` print the open registries instead;
* ``figure`` — reproduce a figure (2-4, 11-19), a table (table1/table2) or the
  §7.7 lifetime study, optionally writing a JSON artifact;
* ``sweep``  — run a custom (models x policies x batches) grid;
* ``report`` — render *every* figure/table from the result cache into
  Markdown + JSON artifacts, and print the Claims table of the paper's
  comparative claims checked on them;
* ``lint``   — run the project's AST-based static analyzer (determinism
  rules DET001-DET004, PERF001) over source trees, one file at a time;
  prints one ``path:line:col: CODE message`` line per finding and exits 1
  if there is any;
* ``cache``  — inspect or clear the on-disk result cache.

Malformed input fails with exit code 2 and one ``error:`` line on stderr,
never a traceback: argparse rejects malformed option values (every float
option must be finite), and every other failure surfaces as a
:class:`~repro.errors.ReproError`, including an unusable output, cache or
report path.

Every experiment runs serially in-process by default, or over ``--jobs N``
worker processes on one machine (bit-identical to serial), and honours the
result cache under ``--cache-dir`` (default ``.repro_cache/``, or
``$REPRO_CACHE_DIR``); re-running any command is a cache hit. ``--no-cache``
forces re-execution. ``--resume`` prints the warm/missing plan before
finishing an interrupted run, and ``repro report --expect-warm`` fails if any
cell had to be recomputed.

Policies, models and experiments resolve through the open registries
(:mod:`repro.registry`); out-of-tree registrations load with ``--plugins
module_a,module_b`` or the ``REPRO_PLUGINS`` environment variable (the latter
also reaches sweep worker processes and is read before the parser is built,
so plugin experiments appear among the ``repro figure`` choices).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Sequence

from .api import Scenario
from .experiments import (
    ConfigPatch,
    ResultCache,
    SweepRunner,
    SweepSpec,
    combined_spec,
    format_table,
    generate_report,
    get_experiment,
    jsonify,
    table2_configuration,
)
from .experiments import claims
from .experiments.reporting import experiment_ids
from .experiments.tenancy import (
    MAX_REQUESTS,
    MAX_TENANTS,
    ArrivalProcess,
    MultiTenantScenario,
    Tenant,
)
from .config import GB, whole_bytes
from .errors import ConfigurationError, ReproError
from .registry import MODEL_REGISTRY, POLICY_REGISTRY, load_plugins


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _selection(text: str | None, option: str) -> list[str] | None:
    """A comma-separated subset: absent means the default set, empty is an error."""
    if text is None:
        return None
    items = _csv(text)
    if not items:
        raise ConfigurationError(f"{option} is empty; omit it to select the default set")
    return items


def _finite_float(text: str) -> float:
    """argparse type of every float option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _csv_numbers(text: str, parse, option: str) -> list:
    """A comma-separated list of finite numbers (``sweep --batches/--errors``)."""
    values = []
    for item in _csv(text):
        try:
            value = parse(item)
        except ValueError:
            raise ConfigurationError(f"{option}: {item!r} is not a number") from None
        if not -math.inf < value < math.inf:
            raise ConfigurationError(f"{option}: {item!r} is not a finite number")
        values.append(value)
    return values


def _write_json(path: str, payload, sort_keys: bool = False) -> None:
    """Write a JSON artifact; an unwritable path is a :class:`ConfigurationError`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=sort_keys)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def _make_runner(args: argparse.Namespace) -> SweepRunner:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return SweepRunner(jobs=args.jobs, cache=cache)


def _require_cache_for_resume(args: argparse.Namespace) -> None:
    if args.resume and args.no_cache:
        raise ConfigurationError("--resume requires the result cache (drop --no-cache)")


def _emit(args: argparse.Namespace, results, as_table: bool = False) -> None:
    payload = jsonify(results)
    if args.output:
        _write_json(args.output, payload, sort_keys=True)
    elif as_table:
        print(format_table(results))
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()


def _report_stats(label: str, runner: SweepRunner, elapsed: float) -> None:
    stats = runner.last_stats
    print(
        f"{label}: {stats['cells']} cells "
        f"({stats['cache_hits']} cached, {stats['executed']} executed), "
        f"jobs={runner.jobs or 1}, {elapsed:.2f}s",
        file=sys.stderr,
    )


def _print_plan(label: str, runner: SweepRunner, spec: SweepSpec) -> None:
    counts = runner.plan(spec).counts()
    print(
        f"{label}: resuming {counts['cells']} cells "
        f"({counts['distinct']} distinct): {counts['warm']} warm, "
        f"{counts['to_execute']} to execute",
        file=sys.stderr,
    )


def _registry_listing(registry) -> str:
    rows = []
    for info in registry.describe_all():
        description = info.get("description", "")
        if not description and "dataset" in info:
            description = f"{info.get('source', '?')} / {info['dataset']}"
        rows.append(
            {
                "name": info["name"],
                "aliases": ", ".join(info["aliases"]) or "-",
                "display": info.get("display", info["name"]),
                "description": description,
            }
        )
    return format_table(rows)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_policies:
        print(_registry_listing(POLICY_REGISTRY))
        return 0
    if args.list_models:
        print(_registry_listing(MODEL_REGISTRY))
        return 0
    if args.model is None:
        raise ConfigurationError("repro run requires --model (or --list-policies/--list-models)")

    runner = _make_runner(args)
    patch = ConfigPatch(
        host_memory_bytes=(
            None if args.host_memory_gb is None
            else whole_bytes(args.host_memory_gb * GB, f"--host-memory-gb {args.host_memory_gb}")
        ),
        ssd_read_bandwidth=None if args.ssd_bandwidth_gbs is None else args.ssd_bandwidth_gbs * GB,
    )
    if args.tenants is not None:
        return _run_tenants(args, runner, patch)
    scenario = Scenario(
        model=args.model,
        policy=args.policy,
        batch_size=args.batch,
        scale=args.scale,
        patch=patch,
        profiling_error=args.error,
        seed=args.seed,
    )
    start = time.monotonic()
    outcome = scenario.run(runner=runner)
    _report_stats(f"run {args.model}/{args.policy}", runner, time.monotonic() - start)
    result = outcome.result
    print(format_table([result.summary()]))
    if args.output:
        payload = {
            "cell": outcome.scenario.to_dict(),
            "result": result.to_dict(),
            "provenance": {
                "config_fingerprint": outcome.config_fingerprint,
                "cache_key": outcome.cache_key,
                "policy": dict(outcome.policy),
                "cached": outcome.cached,
            },
        }
        _write_json(args.output, payload)
    return 1 if result.failed else 0


def _run_tenants(args: argparse.Namespace, runner: SweepRunner, patch: ConfigPatch) -> int:
    """``repro run --tenants N``: co-locate N sessions on one shared system."""
    if not 1 <= args.tenants <= MAX_TENANTS:
        raise ConfigurationError(f"--tenants must be in [1, {MAX_TENANTS}], got {args.tenants}")
    # Per-tenant offered load sums to --arrival-load across the system.
    arrivals = ArrivalProcess.poisson(
        load=args.arrival_load / args.tenants,
        requests=args.requests,
        seed=args.seed,
    )
    policies = _csv(args.tenant_policies) if args.tenant_policies else [args.policy]
    tenants = []
    for index in range(args.tenants):
        policy = policies[index % len(policies)]
        scenario = Scenario(
            model=args.model,
            policy=policy,
            batch_size=args.batch,
            scale=args.scale,
            patch=patch,
            profiling_error=args.error,
            seed=args.seed,
        )
        tenants.append(Tenant(name=f"t{index}-{policy}", scenario=scenario, arrivals=arrivals))
    start = time.monotonic()
    result = MultiTenantScenario(tenants=tuple(tenants)).run(runner=runner)
    _report_stats(f"run {args.model} x{args.tenants} tenants", runner, time.monotonic() - start)
    print(format_table(result.summary_rows()))
    print(
        f"fairness (Jain): {result.fairness:.4f}, makespan: {result.makespan:.4f}s",
        file=sys.stderr,
    )
    if args.output:
        _write_json(args.output, jsonify(result.to_dict()), sort_keys=True)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.id)
    models = None
    selected = _selection(args.models, "--models")
    if selected is not None:
        if not experiment.supports_models:
            print(f"figure {args.id} has a fixed workload set; --models ignored", file=sys.stderr)
        else:
            models = tuple(selected)

    if experiment.id == "table2":
        _emit(args, [{"parameter": k, "value": v} for k, v in table2_configuration().items()],
              as_table=True)
        return 0

    _require_cache_for_resume(args)
    runner = _make_runner(args)
    kwargs = {"scale": args.scale, "runner": runner}
    if models is not None:
        kwargs["models"] = models
    if args.resume and experiment.spec is not None:
        _print_plan(f"figure {args.id}", runner, experiment.spec(args.scale, models))
    start = time.monotonic()
    results = experiment.render(**kwargs)
    _report_stats(f"figure {args.id} [{args.scale}]", runner, time.monotonic() - start)
    _emit(args, results, as_table=experiment.id == "table1")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    spec = SweepSpec.grid(
        "cli-sweep",
        models=_csv(args.models),
        policies=_csv(args.policies),
        batch_sizes=(
            _csv_numbers(args.batches, int, "--batches") if args.batches else (None,)
        ),
        scale=args.scale,
        profiling_errors=(
            _csv_numbers(args.errors, float, "--errors") if args.errors else (0.0,)
        ),
    )
    _require_cache_for_resume(args)
    if args.resume:
        _print_plan("sweep", runner, spec)
    start = time.monotonic()
    outs = runner.run(spec)
    _report_stats(f"sweep ({len(spec.cells)} cells)", runner, time.monotonic() - start)
    rows = [out.result.summary() for out in outs]
    print(format_table(rows))
    if args.output:
        payload = [
            {"cell": out.cell.to_dict(), "summary": jsonify(row)}
            for out, row in zip(outs, rows)
        ]
        _write_json(args.output, payload)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    figures = _selection(args.figures, "--figures")
    _require_cache_for_resume(args)
    if args.resume:
        _print_plan("report", runner, combined_spec(args.scale, figures))
    start = time.monotonic()
    manifest = generate_report(
        scale=args.scale,
        figures=figures,
        runner=runner,
        output_dir=args.output_dir,
        expect_warm=args.expect_warm,
    )
    if manifest["claims"]:
        print(format_table(claims.table_rows(manifest["claims"]), float_format="{:.4g}"))
    totals = manifest["totals"]
    print(
        f"report [{args.scale}]: {len(manifest['figures'])} artifacts, "
        f"{totals['cells']} cells ({totals['warm']} warm, {totals['recomputed']} recomputed), "
        f"{time.monotonic() - start:.2f}s -> {args.output_dir}/report.md",
        file=sys.stderr,
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import lint_paths

    paths = args.paths
    if not paths:
        default = os.path.join("src", "repro")
        if os.path.isdir(default):
            paths = [default]
        else:  # installed package: lint the importable sources
            paths = [os.path.dirname(os.path.abspath(__file__))]
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    print(f"repro lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        stats = cache.stats()
        print(f"cache root : {stats['root']}")
        print(f"entries    : {stats['entries']}")
        print(f"size       : {stats['bytes'] / 1e6:.2f} MB")
        print(f"stale tmp  : {stats['stale_tmp']} ({stats['stale_tmp_bytes']} bytes)")
    elif args.action == "clear":
        print(f"removed {cache.clear()} cached results")
    elif args.action == "path":
        print(cache.root)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=("ci", "paper"), default="ci",
                        help="workload scale (default: ci)")
    parser.add_argument("--plugins", default=None, metavar="MODULES",
                        help="comma-separated modules to import before running "
                             "(registering policies/models; also $REPRO_PLUGINS)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan cells out over N worker processes")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory (default: .repro_cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write results as a JSON artifact instead of stdout")


def _add_resume(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resume", action="store_true",
                        help="report the warm/missing plan before running; requires the cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one (model, policy) cell")
    run.add_argument("--model", default=None, help="model name (bert, vit, ...)")
    run.add_argument("--policy", default="g10", help="policy name (default: g10)")
    run.add_argument("--list-policies", action="store_true",
                     help="list every registered policy (with aliases) and exit")
    run.add_argument("--list-models", action="store_true",
                     help="list every registered model (with aliases) and exit")
    run.add_argument("--batch", type=int, default=None, help="batch size (default: Figure 11's)")
    run.add_argument("--error", type=_finite_float, default=0.0,
                     help="profiling error fraction (§7.6)")
    run.add_argument("--seed", type=int, default=0, help="profiling-error noise seed")
    run.add_argument("--host-memory-gb", type=_finite_float, default=None,
                     help="override host memory capacity (GB)")
    run.add_argument("--ssd-bandwidth-gbs", type=_finite_float, default=None,
                     help="override SSD read bandwidth (GB/s, write scaled proportionally)")
    run.add_argument("--tenants", type=int, default=None, metavar="N",
                     help="co-locate N sessions of this model on one shared "
                          "GPU+SSD and report per-tenant SLO/fairness metrics "
                          f"(N <= {MAX_TENANTS})")
    run.add_argument("--arrival-load", type=_finite_float, default=1.0, metavar="RHO",
                     help="tenants: total offered load (requests per solo "
                          "latency) split evenly across tenants (default: 1.0)")
    run.add_argument("--requests", type=int, default=4, metavar="K",
                     help="tenants: Poisson-arrival requests per tenant "
                          f"(K <= {MAX_REQUESTS}, default: 4)")
    run.add_argument("--tenant-policies", default=None, metavar="P1,P2",
                     help="tenants: per-tenant policies assigned round-robin "
                          "(default: --policy for every tenant)")
    _add_common(run)
    _add_output(run)
    run.set_defaults(func=_cmd_run)

    figure = sub.add_parser("figure", help="reproduce a figure or table of the paper")
    # Computed lazily so experiments registered by plugins appear as choices.
    figure.add_argument("id", choices=tuple(experiment_ids()),
                        help="figure number, table1/table2, or lifetime (§7.7)")
    figure.add_argument("--models", default=None,
                        help="comma-separated model subset (figures that sweep models)")
    _add_common(figure)
    _add_output(figure)
    _add_resume(figure)
    figure.set_defaults(func=_cmd_figure)

    sweep = sub.add_parser("sweep", help="run a custom model x policy x batch grid")
    sweep.add_argument("--models", required=True, help="comma-separated model names")
    sweep.add_argument("--policies", required=True, help="comma-separated policy names")
    sweep.add_argument("--batches", default=None, help="comma-separated batch sizes")
    sweep.add_argument("--errors", default=None, help="comma-separated profiling error levels")
    _add_common(sweep)
    _add_output(sweep)
    _add_resume(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser(
        "report", help="render every figure/table from the cache (Markdown + JSON) "
        "and check the paper's claims on them"
    )
    report.add_argument("--figures", default=None, metavar="IDS",
                        help="comma-separated experiment ids (default: all)")
    report.add_argument("--output-dir", default="report", metavar="DIR",
                        help="artifact directory (default: report/)")
    report.add_argument("--expect-warm", action="store_true",
                        help="fail if any cell had to be recomputed (CI resume contract)")
    _add_common(report)
    _add_resume(report)
    report.set_defaults(func=_cmd_report)

    lint = sub.add_parser(
        "lint", help="run the per-file determinism static analyzer over source trees"
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: src/repro)")
    lint.set_defaults(func=_cmd_lint)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear", "path"))
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache directory (default: .repro_cache or $REPRO_CACHE_DIR)")
    cache.set_defaults(func=_cmd_cache)

    return parser


def _peek_plugins(argv: Sequence[str] | None) -> list[str]:
    """Every ``--plugins`` value, extracted before full argument parsing.

    All occurrences are collected (argparse keeps only the last, but each
    named module may register experiments the parser's choices depend on).
    """
    tokens = list(sys.argv[1:] if argv is None else argv)
    values = []
    for index, token in enumerate(tokens):
        flag, eq, inline = token.partition("=")
        # Accept the unambiguous abbreviations argparse accepts ("--plu",
        # "--plugin", ...); "--pl" is the shortest prefix no other option
        # shares.
        if len(flag) >= 4 and "--plugins".startswith(flag) and flag.startswith("--"):
            if eq:
                values.append(inline)
            elif index + 1 < len(tokens):
                values.append(tokens[index + 1])
    return values


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # Plugins ($REPRO_PLUGINS and --plugins) load before the parser is
        # built so plugin-registered experiments appear among the
        # `repro figure` choices.
        load_plugins()
        for peeked in _peek_plugins(argv):
            load_plugins(peeked)
        args = build_parser().parse_args(argv)
        if getattr(args, "plugins", None):
            load_plugins(args.plugins)  # no-op when already peeked
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
