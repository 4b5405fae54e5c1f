"""Cache-aware report generation: every figure/table as Markdown + JSON.

This module owns the canonical registry of the paper's experiments
(:data:`EXPERIMENTS`) — each entry pairs the figure's render function with the
:class:`~repro.experiments.sweep.SweepSpec` builder behind it — and
:func:`generate_report`, which renders every figure and table from the
(ideally warm) result cache into ``<output_dir>/<id>.json`` artifacts plus a
``report.md``/``report.json`` pair whose provenance tables say, cell by cell,
which results were served warm and which had to be recomputed, and whose
Claims table checks the paper's comparative claims
(:mod:`~repro.experiments.claims`) on the payloads just rendered.

Because each figure is planned against the cache *before* it is rendered, the
report doubles as a determinism audit: after a cold run has warmed the cache,
``generate_report(expect_warm=True)`` proves that regenerating every figure
required zero simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..registry import EXPERIMENT_REGISTRY
from . import claims
from .sweep import SweepPlan, SweepRunner, SweepSpec
from .figures import (
    figure2_memory_consumption,
    figure2_spec,
    figure3_inactive_periods,
    figure3_spec,
    figure4_size_vs_inactive,
    figure4_spec,
    figure11_end_to_end,
    figure11_spec,
    figure12_breakdown,
    figure12_spec,
    figure13_kernel_slowdown,
    figure13_spec,
    figure14_traffic,
    figure14_spec,
    figure15_batch_sweep,
    figure15_spec,
    figure16_host_memory,
    figure16_spec,
    figure17_host_memory_compare,
    figure17_spec,
    figure18_ssd_bandwidth,
    figure18_spec,
    figure19_profiling_error,
    figure19_spec,
    section77_spec,
    section77_ssd_lifetime,
)
from .tables import table1_models, table1_spec, table2_configuration
from .tenancy import tenancy_contention, tenancy_spec


def jsonify(obj):
    """Recursively convert numpy arrays/scalars so ``json.dump`` accepts them."""
    if isinstance(obj, dict):
        return {str(key): jsonify(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def format_table(
    rows: Iterable[Mapping[str, object]] | Iterable[Sequence[object]],
    headers: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned, pipe-separated text table.

    Accepts either a list of dictionaries (headers inferred from the first row)
    or a list of sequences plus explicit headers.
    """
    materialized = list(rows)
    if not materialized:
        return "(no rows)"

    if isinstance(materialized[0], Mapping):
        if headers is None:
            headers = list(materialized[0].keys())
        table_rows = [[row.get(h, "") for h in headers] for row in materialized]
    else:
        if headers is None:
            raise ConfigurationError(
                "headers are required when rows are plain sequences"
            )
        table_rows = [list(row) for row in materialized]

    def render(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(v) for v in row] for row in table_rows]
    header_cells = [str(h) for h in headers]
    widths = [
        max(len(header_cells[i]), *(len(row[i]) for row in rendered)) if rendered else len(header_cells[i])
        for i in range(len(header_cells))
    ]
    lines = [
        " | ".join(cell.ljust(width) for cell, width in zip(header_cells, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in rendered:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(
    rows: Iterable[Mapping[str, object]] | Iterable[Sequence[object]],
    headers: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    materialized = list(rows)
    if not materialized:
        return "*(no rows)*"
    if isinstance(materialized[0], Mapping):
        if headers is None:
            headers = list(materialized[0].keys())
        table_rows = [[row.get(h, "") for h in headers] for row in materialized]
    else:
        if headers is None:
            raise ConfigurationError(
                "headers are required when rows are plain sequences"
            )
        table_rows = [list(row) for row in materialized]

    def render(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value).replace("|", "\\|")

    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in table_rows:
        lines.append("| " + " | ".join(render(v) for v in row) + " |")
    return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper: a renderer plus its sweep spec.

    ``spec`` is ``None`` for artifacts with no simulation behind them
    (Table 2 is pure configuration); those are always "warm". ``render``
    takes ``(scale, runner)`` plus an optional ``models`` subset when
    ``supports_models`` is set.
    """

    id: str
    title: str
    render: Callable
    spec: Callable[..., SweepSpec] | None = None
    supports_models: bool = False


def _render_table2(scale: str = "paper", runner: SweepRunner | None = None):
    return table2_configuration()


def _register_builtin(experiment: Experiment, aliases: tuple[str, ...] = ()) -> None:
    EXPERIMENT_REGISTRY.register(
        experiment.id, lambda experiment=experiment: experiment,
        aliases=aliases, title=experiment.title,
    )


# Every figure/table of the reproduction, registered in the paper's order.
# Third-party experiments join through ``repro.registry.register_experiment``
# and appear in :data:`EXPERIMENTS`, ``repro figure`` and ``repro report``.
_register_builtin(Experiment("2", "Figure 2 — memory consumption", figure2_memory_consumption, figure2_spec))
_register_builtin(Experiment("3", "Figure 3 — inactive periods", figure3_inactive_periods, figure3_spec))
_register_builtin(Experiment("4", "Figure 4 — size vs inactivity", figure4_size_vs_inactive, figure4_spec))
_register_builtin(Experiment("11", "Figure 11 — end-to-end performance", figure11_end_to_end, figure11_spec, True))
_register_builtin(Experiment("12", "Figure 12 — overlap/stall breakdown", figure12_breakdown, figure12_spec, True))
_register_builtin(Experiment("13", "Figure 13 — per-kernel slowdown", figure13_kernel_slowdown, figure13_spec, True))
_register_builtin(Experiment("14", "Figure 14 — migration traffic", figure14_traffic, figure14_spec, True))
_register_builtin(Experiment("15", "Figure 15 — batch-size sweep", figure15_batch_sweep, figure15_spec, True))
_register_builtin(Experiment("16", "Figure 16 — host-memory sensitivity", figure16_host_memory, figure16_spec, True))
_register_builtin(Experiment("17", "Figure 17 — host-memory comparison", figure17_host_memory_compare, figure17_spec))
_register_builtin(Experiment("18", "Figure 18 — SSD-bandwidth scaling", figure18_ssd_bandwidth, figure18_spec, True))
_register_builtin(Experiment("19", "Figure 19 — profiling-error robustness", figure19_profiling_error, figure19_spec, True))
_register_builtin(
    Experiment("lifetime", "§7.7 — SSD lifetime", section77_ssd_lifetime, section77_spec, True),
    aliases=("77",),
)
_register_builtin(Experiment("table1", "Table 1 — model zoo", table1_models, table1_spec))
_register_builtin(Experiment("table2", "Table 2 — system configuration", _render_table2, None))
_register_builtin(
    Experiment(
        "tenancy", "Multi-tenant contention sweep", tenancy_contention, tenancy_spec, True
    ),
    aliases=("serving", "multitenant"),
)


class _ExperimentView(Sequence):
    """Live, ordered view of every registered experiment.

    Kept as the importable :data:`EXPERIMENTS` name so existing callers (and
    tests) keep iterating a sequence, while experiments registered after
    import — e.g. by plugins — still show up.
    """

    def _experiments(self) -> list[Experiment]:
        return [entry.factory() for entry in EXPERIMENT_REGISTRY]

    def __iter__(self):
        return iter(self._experiments())

    def __getitem__(self, index):
        return self._experiments()[index]

    def __len__(self) -> int:
        return len(EXPERIMENT_REGISTRY)

    def __repr__(self) -> str:
        return f"EXPERIMENTS({[e.id for e in self._experiments()]})"


#: Every registered figure/table, in registration (= paper) order.
EXPERIMENTS = _ExperimentView()


def experiment_ids() -> list[str]:
    """Every accepted ``repro figure`` id: canonical ids plus aliases."""
    return sorted(set(EXPERIMENT_REGISTRY.available()) | set(EXPERIMENT_REGISTRY.aliases()))


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (``"11"``, ``"table1"``, ``"77"``, ...)."""
    return EXPERIMENT_REGISTRY.create(experiment_id)


def _resolve(figures: Sequence[str] | None) -> list[Experiment]:
    if figures is None:
        return list(EXPERIMENTS)
    resolved = [get_experiment(fid) for fid in figures]
    seen: set[str] = set()
    unique = []
    for experiment in resolved:
        if experiment.id not in seen:
            seen.add(experiment.id)
            unique.append(experiment)
    return unique


def combined_spec(
    scale: str = "paper", figures: Sequence[str] | None = None
) -> SweepSpec:
    """The union grid of every selected experiment, in report order.

    Duplicate cells across figures keep their first position, so the combined
    spec keeps the per-figure specs' workload locality.
    """
    cells = []
    for experiment in _resolve(figures):
        if experiment.spec is not None:
            cells.extend(experiment.spec(scale).cells)
    return SweepSpec(name="report", cells=tuple(cells))


def _provenance(plan: SweepPlan) -> list[dict[str, object]]:
    rows = []
    for entry in plan.entries:
        cell = entry.cell.resolved()
        rows.append(
            {
                "model": cell.model,
                "policy": cell.policy if cell.policy is not None else "(characterize)",
                "batch": cell.batch_size,
                "key": entry.key[:12],
                "status": "warm" if entry.cached else "recomputed",
            }
        )
    return rows


#: PerfCounters fields aggregated into report provenance.
_PERF_FIELDS = ("events_processed", "pages_moved", "fault_events", "eviction_stalls")


def _perf_totals(plan: SweepPlan, counters: Mapping[str, Mapping]) -> dict[str, int]:
    """Aggregate the simulator's :class:`~repro.sim.results.PerfCounters`
    over a figure's distinct cells.

    The counters are deterministic, so the report can attribute simulation
    work (events processed, pages moved, faults, eviction stalls) per figure
    whether each cell was served from the cache or recomputed, and with no
    cache at all. ``counters`` is the runner's
    :attr:`~repro.experiments.sweep.SweepRunner.perf_counters`: the perf
    dict of every payload it served or executed, so no cache entry is
    decoded again here. A cell the runner never saw, or one without a
    simulation result, counts zero.
    """
    totals = dict.fromkeys(_PERF_FIELDS, 0)
    for key in dict.fromkeys(entry.key for entry in plan.entries):
        perf = counters.get(key, {})
        for field in _PERF_FIELDS:
            totals[field] += int(perf.get(field, 0))
    return totals


def generate_report(
    scale: str = "ci",
    figures: Sequence[str] | None = None,
    runner: SweepRunner | None = None,
    output_dir: str | Path = "report",
    expect_warm: bool = False,
) -> dict:
    """Render every selected experiment from the cache into an artifact tree.

    For each experiment the figure's spec is first *planned* against the
    runner's cache (recording, per cell, whether the result is already warm)
    and then rendered — executing only the misses — into
    ``<output_dir>/<id>.json``. The manifest of all plans is written to
    ``report.json`` and a human-readable ``report.md`` summarises warm vs
    recomputed counts per figure, with per-cell provenance tables. Both carry
    the claims rows (:func:`~repro.experiments.claims.evaluate`) of the
    rendered payloads; a row that does not hold is reported, never raised.

    With ``expect_warm=True`` a :class:`~repro.errors.ReproError` is raised
    (after all artifacts are written, so the report can be inspected) if any
    cell had to be recomputed — the CI contract that incremental figure
    regeneration really was served by the cache a cold run warmed. An
    ``output_dir`` that cannot be created raises
    :class:`~repro.errors.ConfigurationError` before any cell runs.
    """
    runner = runner or SweepRunner()
    output_dir = Path(output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create report directory {output_dir}: {exc}") from exc

    manifest: dict = {"scale": scale, "figures": [], "claims": []}
    if runner.cache is not None:
        manifest["cache_root"] = str(runner.cache.root)

    for experiment in _resolve(figures):
        entry: dict = {"id": experiment.id, "title": experiment.title}
        plan = None
        if experiment.spec is not None:
            plan = runner.plan(experiment.spec(scale))
            entry.update(plan.counts())
            entry["provenance"] = _provenance(plan)
        else:
            entry.update({"cells": 0, "distinct": 0, "warm": 0, "to_execute": 0})
            entry["provenance"] = []
        payload = jsonify(experiment.render(scale=scale, runner=runner))
        manifest["claims"] += claims.evaluate({experiment.id: payload}, scale)
        if plan is not None:
            # After rendering, the runner has served or executed every cell;
            # attribute the simulator's perf counters to this figure (the
            # plan's cache keys are render-invariant, so the pre-render plan
            # serves).
            entry["perf"] = _perf_totals(plan, runner.perf_counters)
        else:
            entry["perf"] = dict.fromkeys(_PERF_FIELDS, 0)
        artifact = output_dir / f"{artifact_name(experiment.id)}.json"
        with artifact.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        entry["artifact"] = artifact.name
        entry["payload"] = payload if experiment.id in ("table1", "table2") else None
        manifest["figures"].append(entry)

    totals = {
        "cells": sum(f["cells"] for f in manifest["figures"]),
        "distinct": sum(f["distinct"] for f in manifest["figures"]),
        "warm": sum(f["warm"] for f in manifest["figures"]),
        "recomputed": sum(f["to_execute"] for f in manifest["figures"]),
        "perf": {
            field: sum(f["perf"].get(field, 0) for f in manifest["figures"])
            for field in _PERF_FIELDS
        },
    }
    manifest["totals"] = totals

    with (output_dir / "report.json").open("w", encoding="utf-8") as fh:
        json.dump(_manifest_json(manifest), fh, indent=2, sort_keys=True)
    (output_dir / "report.md").write_text(render_report_markdown(manifest), encoding="utf-8")

    if expect_warm and totals["recomputed"] > 0:
        cold = [f["id"] for f in manifest["figures"] if f["to_execute"] > 0]
        raise ReproError(
            f"expected a fully warm cache but {totals['recomputed']} cell(s) "
            f"were recomputed (figures: {', '.join(cold)})"
        )
    return manifest


def artifact_name(experiment_id: str) -> str:
    """Basename (sans extension) of an experiment's JSON artifact/golden file.

    Purely numeric ids are the paper's figures (``"11"`` → ``figure11``);
    named experiments (``table1``, ``lifetime``, ``tenancy``) keep their id.
    """
    return f"figure{experiment_id}" if experiment_id.isdigit() else experiment_id


def _manifest_json(manifest: dict) -> dict:
    """The manifest without embedded payload copies (artifacts hold those)."""
    slim = dict(manifest)
    slim["figures"] = [
        {key: value for key, value in figure.items() if key != "payload"}
        for figure in manifest["figures"]
    ]
    return slim


def render_report_markdown(manifest: dict) -> str:
    """The ``report.md`` body for a :func:`generate_report` manifest."""
    totals = manifest["totals"]
    lines = [
        f"# Reproduction report (scale={manifest['scale']})",
        "",
        f"{totals['cells']} sweep cells ({totals['distinct']} distinct) across "
        f"{len(manifest['figures'])} artifacts: "
        f"**{totals['warm']} served warm** from the result cache, "
        f"**{totals['recomputed']} recomputed**.",
    ]
    if "cache_root" in manifest:
        lines.append(f"Cache root: `{manifest['cache_root']}`.")
    perf = totals.get("perf")
    if perf:
        lines.append(
            f"Simulation work behind the artifacts: {perf['events_processed']:,} "
            f"events processed, {perf['pages_moved']:,} pages moved, "
            f"{perf['fault_events']:,} fault events, "
            f"{perf['eviction_stalls']:,} eviction stalls."
        )
    lines += [
        "",
        format_markdown_table(
            [
                {
                    "artifact": figure["title"],
                    "cells": figure["cells"],
                    "distinct": figure["distinct"],
                    "warm": figure["warm"],
                    "recomputed": figure["to_execute"],
                    "file": f"`{figure['artifact']}`",
                }
                for figure in manifest["figures"]
            ]
        ),
        "",
        "## Claims",
        "",
        f"{sum(row['holds'] for row in manifest['claims'])} of {len(manifest['claims'])} "
        "rows hold on the artifacts above.",
        "",
        format_markdown_table(claims.table_rows(manifest["claims"]), float_format="{:.4g}"),
    ]
    for figure in manifest["figures"]:
        lines += ["", f"## {figure['title']}", ""]
        if figure["id"] == "table1" and figure.get("payload"):
            lines += [format_markdown_table(figure["payload"]), ""]
        elif figure["id"] == "table2" and figure.get("payload"):
            lines += [
                format_markdown_table(
                    [{"parameter": k, "value": v} for k, v in figure["payload"].items()]
                ),
                "",
            ]
        if not figure["provenance"]:
            lines.append("No sweep cells (static artifact).")
            continue
        lines += [
            f"{figure['cells']} cells ({figure['distinct']} distinct): "
            f"{figure['warm']} warm, {figure['to_execute']} recomputed — "
            f"results in `{figure['artifact']}`.",
            "",
            "<details><summary>Cell provenance</summary>",
            "",
            format_markdown_table(figure["provenance"]),
            "",
            "</details>",
        ]
    lines.append("")
    return "\n".join(lines)
