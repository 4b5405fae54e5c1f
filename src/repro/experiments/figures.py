"""One function per figure of the paper's characterization and evaluation.

Every figure is expressed as a :class:`~repro.experiments.sweep.SweepSpec` and
executed through a :class:`~repro.experiments.sweep.SweepRunner`, so each one
can fan its cells out over worker processes and serve repeats from the on-disk
result cache. Pass ``runner=None`` (the default) for a plain in-process,
uncached run — the library behaviour tests rely on; the ``python -m repro``
CLI constructs a cached, parallel runner instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.lifetime import estimate_ssd_lifetime
from ..analysis.traffic import traffic_breakdown
from ..config import GB
from ..errors import ConfigurationError
from ..models.registry import normalize_model_name
from .harness import default_config, scale_batch
from .sweep import CellResult, ConfigPatch, SweepCell, SweepRunner, SweepSpec

#: Designs compared in the headline evaluation, in the paper's order.
EVALUATED_POLICIES: tuple[str, ...] = (
    "base_uvm",
    "flashneuron",
    "deepum",
    "g10_gds",
    "g10_host",
    "g10",
)

#: Designs compared in the per-kernel breakdown figures (12-14).
BREAKDOWN_POLICIES: tuple[str, ...] = ("base_uvm", "flashneuron", "deepum", "g10")

#: Model/batch pairs used by the §3 characterization figures (Figures 2-4).
CHARACTERIZATION_WORKLOADS: tuple[tuple[str, int], ...] = (
    ("bert", 128),
    ("vit", 512),
    ("resnet152", 512),
    ("inceptionv3", 512),
)

#: The five headline workloads of Figure 11.
FIGURE11_MODELS: tuple[str, ...] = ("bert", "vit", "inceptionv3", "resnet152", "senet154")

#: Designs compared across batch sizes in Figure 15.
FIGURE15_POLICIES: tuple[str, ...] = ("base_uvm", "flashneuron", "deepum", "g10", "ideal")

#: Batch-size sweeps of Figure 15 (paper scale).
FIGURE15_BATCHES: dict[str, tuple[int, ...]] = {
    "bert": (128, 256, 512, 768, 1024),
    "vit": (256, 512, 768, 1024, 1280),
    "inceptionv3": (512, 768, 1024, 1280, 1536, 1792),
    "resnet152": (256, 512, 768, 1024, 1280),
    "senet154": (256, 512, 768, 1024),
}

#: Host-memory capacities (GB) swept in Figures 16 and 17.
FIGURE16_HOST_MEMORY_GB: tuple[int, ...] = (0, 32, 64, 128, 256)

#: SSD bandwidths (GB/s) swept in Figure 18 (1, 2, 3, 4, 5 stacked SSDs).
FIGURE18_SSD_BANDWIDTH_GBS: tuple[float, ...] = (6.4, 12.8, 19.2, 25.6, 32.0)

#: Profiling error levels of Figure 19.
FIGURE19_ERRORS: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)


def _run(spec: SweepSpec, runner: SweepRunner | None) -> list[CellResult]:
    return (runner or SweepRunner()).run(spec)


def _characterization_spec(name: str, scale: str) -> SweepSpec:
    return SweepSpec(
        name=name,
        cells=tuple(
            SweepCell(model=model, policy=None, batch_size=scale_batch(batch, scale), scale=scale)
            for model, batch in CHARACTERIZATION_WORKLOADS
        ),
    )


# --------------------------------------------------------------------- specs
# One builder per experiment, mirroring the figure functions below but
# producing only the grid. The builders are what make figures resumable and
# reportable: ``repro figure N --resume`` and ``repro report`` plan the spec
# against the cache before the figure function renders it, executing only the
# misses. Every builder accepts ``models=None`` for its default workload set;
# fixed-workload figures ignore the argument.

def figure2_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return _characterization_spec("figure2", scale)


def figure3_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return _characterization_spec("figure3", scale)


def figure4_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return _characterization_spec("figure4", scale)


def figure11_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return SweepSpec.grid(
        "figure11",
        models=tuple(models) if models else FIGURE11_MODELS,
        policies=EVALUATED_POLICIES,
        scale=scale,
    )


def _breakdown_spec(name: str, scale: str, models: Sequence[str] | None) -> SweepSpec:
    return SweepSpec.grid(
        name,
        models=tuple(models) if models else FIGURE11_MODELS,
        policies=BREAKDOWN_POLICIES,
        scale=scale,
    )


def figure12_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return _breakdown_spec("figure12", scale, models)


def figure13_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return _breakdown_spec("figure13", scale, models)


def figure14_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return _breakdown_spec("figure14", scale, models)


def figure15_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return SweepSpec("figure15", _figure15_cells(scale, models or FIGURE11_MODELS))


def figure16_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    cells, _ = _figure16_cells(scale, models or FIGURE11_MODELS)
    return SweepSpec("figure16", cells)


def figure17_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    cells, _ = _figure17_cells(scale)
    return SweepSpec("figure17", cells)


def figure18_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    cells, _ = _figure18_cells(scale, models or FIGURE11_MODELS)
    return SweepSpec("figure18", cells)


def figure19_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return SweepSpec("figure19", _figure19_cells(scale, models or FIGURE11_MODELS))


def section77_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    return SweepSpec.grid(
        "section77",
        models=tuple(models) if models else FIGURE11_MODELS,
        policies=("flashneuron", "deepum", "g10"),
        scale=scale,
    )


def _scaled_host_memory(capacity_gb: int, model: str, scale: str) -> int:
    """A Figure 16/17 host-memory set point, shrunk for CI-scale systems so
    the capacity sweep covers the same relative range as at paper scale."""
    capacity = int(capacity_gb * GB)
    if scale == "ci":
        capacity = int(capacity * default_config(model, scale).host_memory_bytes / (128 * GB))
    return capacity


def _figure15_cells(scale: str, models: Sequence[str]) -> tuple[SweepCell, ...]:
    cells = []
    for model in models:
        try:
            batches = FIGURE15_BATCHES[normalize_model_name(model)]
        except KeyError:
            raise ConfigurationError(
                f"no Figure 15 batch sweep for model {model!r}; "
                f"available: {sorted(FIGURE15_BATCHES)}"
            ) from None
        for batch in (scale_batch(b, scale) for b in batches):
            cells.extend(
                SweepCell(model=model, policy=policy, batch_size=batch, scale=scale)
                for policy in FIGURE15_POLICIES
            )
    return tuple(cells)


def _figure16_cells(
    scale: str, models: Sequence[str]
) -> tuple[tuple[SweepCell, ...], list[int]]:
    cells = []
    labels: list[int] = []
    for model in models:
        for capacity_gb in FIGURE16_HOST_MEMORY_GB:
            cells.append(
                SweepCell(
                    model=model,
                    policy="g10",
                    scale=scale,
                    patch=ConfigPatch(host_memory_bytes=_scaled_host_memory(capacity_gb, model, scale)),
                )
            )
            labels.append(capacity_gb)
    return tuple(cells), labels


def _figure17_cells(scale: str) -> tuple[tuple[SweepCell, ...], list[tuple[int, str]]]:
    cases = {"vit": 1024, "inceptionv3": 1280}
    policies = ("deepum", "flashneuron", "g10")
    cells = []
    labels: list[tuple[int, str]] = []
    for model, batch in cases.items():
        for capacity_gb in FIGURE16_HOST_MEMORY_GB:
            patch = ConfigPatch(host_memory_bytes=_scaled_host_memory(capacity_gb, model, scale))
            for policy in policies:
                cells.append(
                    SweepCell(
                        model=model,
                        policy=policy,
                        batch_size=scale_batch(batch, scale),
                        scale=scale,
                        patch=patch,
                    )
                )
                labels.append((capacity_gb, policy))
    return tuple(cells), labels


def _figure18_cells(
    scale: str, models: Sequence[str]
) -> tuple[tuple[SweepCell, ...], list[tuple[float, str]]]:
    cells = []
    labels: list[tuple[float, str]] = []
    for model in models:
        for bandwidth in FIGURE18_SSD_BANDWIDTH_GBS:
            patch = ConfigPatch(interconnect_bandwidth=32 * GB, ssd_read_bandwidth=bandwidth * GB)
            for policy in BREAKDOWN_POLICIES:
                cells.append(SweepCell(model=model, policy=policy, scale=scale, patch=patch))
                labels.append((bandwidth, policy))
    return tuple(cells), labels


def _figure19_cells(scale: str, models: Sequence[str]) -> tuple[SweepCell, ...]:
    cells = []
    for model in models:
        cells.append(SweepCell(model=model, policy="g10", scale=scale))
        cells.extend(
            SweepCell(model=model, policy="g10", scale=scale, profiling_error=error, seed=17)
            for error in FIGURE19_ERRORS
        )
    return tuple(cells)


# --------------------------------------------------------------------------- §3
def figure2_memory_consumption(
    scale: str = "paper", runner: SweepRunner | None = None
) -> dict[str, dict[str, np.ndarray]]:
    """Figure 2: all-tensor vs active-tensor memory per kernel."""
    results: dict[str, dict[str, np.ndarray]] = {}
    for out in _run(_characterization_spec("figure2", scale), runner):
        char = out.characterization
        results[f"{out.workload['model']}-{out.workload['batch_size']}"] = {
            "total": char.total_fraction,
            "active": char.active_fraction,
            "mean_active_fraction": np.float64(char.mean_active_fraction),
        }
    return results


def figure3_inactive_periods(
    scale: str = "paper", runner: SweepRunner | None = None
) -> dict[str, np.ndarray]:
    """Figure 3: distribution of inactive-period lengths (seconds, sorted)."""
    results: dict[str, np.ndarray] = {}
    for out in _run(_characterization_spec("figure3", scale), runner):
        char = out.characterization
        results[f"{out.workload['model']}-{out.workload['batch_size']}"] = char.inactive_period_seconds
    return results


def figure4_size_vs_inactive(
    scale: str = "paper", runner: SweepRunner | None = None
) -> dict[str, dict[str, np.ndarray]]:
    """Figure 4: (inactive period length, tensor size) scatter per workload."""
    results: dict[str, dict[str, np.ndarray]] = {}
    for out in _run(_characterization_spec("figure4", scale), runner):
        char = out.characterization
        results[f"{out.workload['model']}-{out.workload['batch_size']}"] = {
            "seconds": char.inactive_period_seconds,
            "bytes": char.inactive_period_bytes,
        }
    return results


# --------------------------------------------------------------------------- §7.2
def figure11_end_to_end(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[str, float]]:
    """Figure 11: training throughput of every design, normalised to ideal."""
    spec = figure11_spec(scale, models)
    results: dict[str, dict[str, float]] = {}
    for out in _run(spec, runner):
        per_model = results.setdefault(out.workload["model"], {})
        per_model[out.cell.policy] = out.result.normalized_performance
        per_model["memory_footprint_ratio"] = out.workload["memory_footprint_ratio"]
    return results


def figure12_breakdown(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Figure 12: overlapped-compute vs stall fraction of each design."""
    spec = figure12_spec(scale, models)
    results: dict[str, dict[str, dict[str, float]]] = {}
    for out in _run(spec, runner):
        run = out.result
        results.setdefault(out.workload["model"], {})[out.cell.policy] = {
            "overlap": run.overlap_fraction,
            "stall": run.stall_fraction,
        }
    return results


def figure13_kernel_slowdown(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[str, np.ndarray]]:
    """Figure 13: per-kernel slowdown distributions (sorted descending)."""
    spec = figure13_spec(scale, models)
    results: dict[str, dict[str, np.ndarray]] = {}
    for out in _run(spec, runner):
        results.setdefault(out.workload["model"], {})[out.cell.policy] = np.sort(
            out.result.kernel_slowdowns()
        )[::-1]
    return results


def figure14_traffic(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Figure 14: GPU-SSD vs GPU-Host migration traffic per design."""
    spec = figure14_spec(scale, models)
    results: dict[str, dict[str, dict[str, float]]] = {}
    for out in _run(spec, runner):
        breakdown = traffic_breakdown(out.result)
        results.setdefault(out.workload["model"], {})[out.cell.policy] = {
            "gpu_ssd_gb": breakdown.gpu_ssd_gb,
            "gpu_host_gb": breakdown.gpu_host_gb,
            "read_gb": breakdown.read_gb,
            "write_gb": breakdown.write_gb,
        }
    return results


# --------------------------------------------------------------------------- §7.3
def figure15_batch_sweep(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[int, dict[str, float]]]:
    """Figure 15: training throughput (samples/s) across batch sizes."""
    results: dict[str, dict[int, dict[str, float]]] = {}
    for out in _run(figure15_spec(scale, models), runner):
        per_model = results.setdefault(out.workload["model"], {})
        per_batch = per_model.setdefault(out.workload["batch_size"], {})
        per_batch[out.cell.policy] = out.result.throughput()
    return results


# --------------------------------------------------------------------------- §7.4
def figure16_host_memory(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[int, float]]:
    """Figure 16: G10 execution time as host memory capacity varies."""
    cells, labels = _figure16_cells(scale, models)
    results: dict[str, dict[int, float]] = {}
    for out, capacity_gb in zip(_run(SweepSpec("figure16", cells), runner), labels):
        results.setdefault(out.workload["model"], {})[capacity_gb] = out.result.execution_time
    return results


def figure17_host_memory_compare(
    scale: str = "paper", runner: SweepRunner | None = None
) -> dict[str, dict[int, dict[str, float]]]:
    """Figure 17: G10 vs DeepUM+ vs FlashNeuron across host memory capacities."""
    cells, labels = _figure17_cells(scale)
    results: dict[str, dict[int, dict[str, float]]] = {}
    for out, (capacity_gb, policy) in zip(_run(SweepSpec("figure17", cells), runner), labels):
        per_model = results.setdefault(out.workload["model"], {})
        per_model.setdefault(capacity_gb, {})[policy] = out.result.execution_time
    return results


# --------------------------------------------------------------------------- §7.5
def figure18_ssd_bandwidth(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[float, dict[str, float]]]:
    """Figure 18: normalised performance as SSD bandwidth scales (PCIe 4.0 host link)."""
    cells, labels = _figure18_cells(scale, models)
    results: dict[str, dict[float, dict[str, float]]] = {}
    for out, (bandwidth, policy) in zip(_run(SweepSpec("figure18", cells), runner), labels):
        per_model = results.setdefault(out.workload["model"], {})
        per_model.setdefault(bandwidth, {})[policy] = out.result.normalized_performance
    return results


# --------------------------------------------------------------------------- §7.6
def figure19_profiling_error(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[float, float]]:
    """Figure 19: G10 performance under kernel-timing prediction errors.

    Values are normalised to the error-free G10 run (1.0 means no degradation).
    """
    outs = iter(_run(SweepSpec("figure19", _figure19_cells(scale, models)), runner))
    results: dict[str, dict[float, float]] = {}
    for model in models:
        baseline_out = next(outs)
        baseline = baseline_out.result
        per_model: dict[float, float] = {}
        for error in FIGURE19_ERRORS:
            run = next(outs).result
            per_model[error] = (
                baseline.execution_time / run.execution_time if run.execution_time else 0.0
            )
        results[baseline_out.workload["model"]] = per_model
    return results


# --------------------------------------------------------------------------- §7.7
def section77_ssd_lifetime(
    scale: str = "paper",
    models: Sequence[str] = FIGURE11_MODELS,
    runner: SweepRunner | None = None,
) -> dict[str, dict[str, float]]:
    """§7.7: projected SSD lifetime (years) and write traffic per design."""
    spec = section77_spec(scale, models)
    results: dict[str, dict[str, float]] = {}
    for out in _run(spec, runner):
        per_model = results.setdefault(out.workload["model"], {})
        run = out.result
        if run.failed:
            continue
        estimate = estimate_ssd_lifetime(run, out.cell.resolved().config().ssd)
        per_model[f"{out.cell.policy}_lifetime_years"] = estimate.lifetime_years
        per_model[f"{out.cell.policy}_ssd_writes_gb"] = run.ssd_bytes_written / 1e9
    return results
