"""Declarative experiment sweeps with parallel execution and result caching.

The paper's evaluation is a grid of (model x policy x batch x system-config x
profiling-error) cells. This module turns that grid into data:

* :class:`Scenario` (also exported as ``SweepCell``) — one simulation (or,
  with ``policy=None``, one workload characterization) described entirely by
  values, so it can be hashed, shipped to a worker process, cached on disk,
  or run directly with :meth:`Scenario.run`;
* :class:`ConfigPatch` — a declarative override of the cell's default
  :class:`~repro.config.SystemConfig` (the Figures 16-18 sensitivity axes);
* :class:`SweepSpec` — a named, ordered collection of cells with a grid
  constructor for cartesian-product sweeps;
* :class:`SweepRunner` — executes a spec serially or over a
  ``ProcessPoolExecutor``; it deduplicates identical cells, serves repeats
  from a :class:`~repro.experiments.cache.ResultCache`, and always returns
  results in spec order so parallel and serial runs are indistinguishable.

Workers build workloads through :func:`~repro.experiments.harness.build_workload`,
whose per-process memo means consecutive cells that share a workload profile
it only once; ``ProcessPoolExecutor.map`` chunks consecutive cells onto the
same worker, so specs (like every figure's) that group cells by workload keep
that locality in parallel runs too.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.characterization import CharacterizationResult, characterize_workload
from ..config import SystemConfig, whole_bytes
from ..errors import ConfigurationError
from ..registry import POLICY_REGISTRY, load_plugins
from ..sim import SimulationResult
from ..sim.observer import SimObserver
from .cache import CACHE_SCHEMA_VERSION, ResultCache
from .harness import build_workload, canonicalize_cell_fields, default_config, run_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tenancy import ArrivalProcess, MultiTenantScenario


@dataclass(frozen=True)
class ConfigPatch:
    """Declarative override of a cell's default system configuration.

    Only the swept axes of the paper's sensitivity studies are expressible;
    each ``None`` field is left at the cell's default. ``ssd_read_bandwidth``
    without ``ssd_write_bandwidth`` scales the write bandwidth proportionally,
    matching :meth:`SystemConfig.with_ssd_bandwidth` (the Figure 18 sweep).

    Fields are canonical from construction on, so equal patches share one
    cache key: byte counts are ints (``16e9`` is ``16 * 10**9``) and
    bandwidths are floats, the type :class:`SystemConfig` declares. A value
    that is not a number raises :class:`~repro.errors.ConfigurationError`.
    """

    host_memory_bytes: int | None = None
    gpu_memory_bytes: int | None = None
    interconnect_bandwidth: float | None = None
    ssd_read_bandwidth: float | None = None
    ssd_write_bandwidth: float | None = None

    def __post_init__(self) -> None:
        for name, value in list(self.__dict__.items()):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
            canonical = whole_bytes(value, name) if name.endswith("_bytes") else float(value)
            object.__setattr__(self, name, canonical)

    def is_empty(self) -> bool:
        return all(value is None for value in self.__dict__.values())

    def apply(self, config: SystemConfig) -> SystemConfig:
        if self.interconnect_bandwidth is not None:
            config = config.with_interconnect_bandwidth(self.interconnect_bandwidth)
        if self.ssd_read_bandwidth is not None:
            config = config.with_ssd_bandwidth(self.ssd_read_bandwidth, self.ssd_write_bandwidth)
        elif self.ssd_write_bandwidth is not None:
            config = config.with_ssd_bandwidth(config.ssd.read_bandwidth, self.ssd_write_bandwidth)
        if self.host_memory_bytes is not None:
            config = config.with_host_memory(self.host_memory_bytes)
        if self.gpu_memory_bytes is not None:
            config = config.with_gpu_memory(self.gpu_memory_bytes)
        return config

    def to_dict(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ConfigPatch":
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """One point of an experiment grid, described entirely by values.

    Construct with keywords or chain the fluent setters; each setter returns
    a new scenario, so partial scenarios compose::

        base = Scenario("vit", scale="ci")
        results = {name: base.on_policy(name).run() for name in ("base_uvm", "g10")}

    ``batch_size=None`` resolves to the model's registered Figure 11 default
    (scaled for CI workloads), and the system configuration is the paper's
    Table 2 at the chosen scale with ``patch`` applied on top.
    ``policy=None`` marks a characterization cell (the §3 figures): the
    sweep runner builds and analyzes the workload but simulates no policy.
    """

    model: str
    policy: str | None = "g10"
    batch_size: int | None = None
    scale: str = "paper"
    patch: ConfigPatch = field(default_factory=ConfigPatch)
    profiling_error: float = 0.0
    seed: int = 0

    # -- fluent construction ---------------------------------------------------

    def on_policy(self, policy: str) -> "Scenario":
        """A copy simulated under a different registered policy."""
        return replace(self, policy=policy)

    def with_batch_size(self, batch_size: int | None) -> "Scenario":
        """A copy at an explicit batch size (``None`` restores the default)."""
        return replace(self, batch_size=batch_size)

    def at_scale(self, scale: str) -> "Scenario":
        """A copy at ``"paper"`` or ``"ci"`` scale."""
        return replace(self, scale=scale)

    def with_profiling_error(self, error: float, seed: int | None = None) -> "Scenario":
        """A copy whose policy plans from noisy kernel durations (§7.6)."""
        return replace(self, profiling_error=error, seed=self.seed if seed is None else seed)

    def _patched(self, **changes: Any) -> "Scenario":
        return replace(self, patch=replace(self.patch, **changes))

    def with_gpu_memory(self, nbytes: int) -> "Scenario":
        """A copy with a different GPU memory capacity (bytes)."""
        return self._patched(gpu_memory_bytes=whole_bytes(nbytes, "GPU memory"))

    def with_host_memory(self, nbytes: int) -> "Scenario":
        """A copy with a different host DRAM capacity (Figures 16/17)."""
        return self._patched(host_memory_bytes=whole_bytes(nbytes, "host memory"))

    def with_ssd_bandwidth(self, read_bw: float, write_bw: float | None = None) -> "Scenario":
        """A copy with a different SSD bandwidth (Figure 18); write bandwidth
        scales proportionally when omitted."""
        return self._patched(ssd_read_bandwidth=read_bw, ssd_write_bandwidth=write_bw)

    def with_interconnect_bandwidth(self, bandwidth: float) -> "Scenario":
        """A copy with a different PCIe bandwidth."""
        return self._patched(interconnect_bandwidth=bandwidth)

    # -- resolution ------------------------------------------------------------

    def resolved(self) -> "Scenario":
        """Canonical, validated form: normalized model and policy names, an
        explicit batch size, and the seed zeroed when no profiling noise is
        applied (the seed is unused then). Alias spellings ("G10+Host",
        "uvm") share the canonical cell's cache key, so they deduplicate and
        resume together.

        Raises :class:`~repro.errors.ConfigurationError` (or
        :class:`~repro.errors.ModelError`) for unknown names, a scale
        outside ``{"paper", "ci"}``, a profiling error outside ``[0, 1)``,
        or a seed or batch size that is not a whole number in range.
        """
        return replace(
            self,
            **canonicalize_cell_fields(
                self.model, self.policy, self.batch_size,
                self.scale, self.profiling_error, self.seed,
            ),
        )

    def config(self) -> SystemConfig:
        """The exact system configuration this cell simulates."""
        return self.patch.apply(default_config(self.model, self.scale))

    def cache_key(self) -> str:
        """Content hash over everything the cell's result depends on.

        Includes the package version, so cached results are invalidated on
        release bumps; edits to the simulator *within* a version still hit —
        run ``repro cache clear`` (or bump ``repro.__version__``) after
        changing simulation code.
        """
        from .. import __version__

        cell = self.resolved()
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "version": __version__,
                "model": cell.model,
                "policy": cell.policy,
                "batch_size": cell.batch_size,
                "scale": cell.scale,
                "config": cell.config().fingerprint(),
                "profiling_error": cell.profiling_error,
                "seed": cell.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "policy": self.policy,
            "batch_size": self.batch_size,
            "scale": self.scale,
            "patch": self.patch.to_dict(),
            "profiling_error": self.profiling_error,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            model=data["model"],
            policy=data["policy"],
            batch_size=data["batch_size"],
            scale=data["scale"],
            patch=ConfigPatch.from_dict(data.get("patch", {})),
            profiling_error=data.get("profiling_error", 0.0),
            seed=data.get("seed", 0),
        )

    # -- execution -------------------------------------------------------------

    def run(
        self,
        observers: Sequence[SimObserver] = (),
        runner: SweepRunner | None = None,
    ) -> "SessionResult":
        """Simulate this scenario and return its result with provenance.

        Without a ``runner`` the simulation executes in-process (and
        ``observers`` receive kernel/migration events). With a
        :class:`SweepRunner` the run goes through the runner's cache and
        process pool instead — bit-identical results, but observers cannot
        cross the cache/process boundary and are rejected.
        """
        cell = self.resolved()
        if cell.policy is None:
            raise ConfigurationError(f"characterization cell {cell} has no policy to run")
        config = cell.config()
        if runner is None:
            result = run_policy(
                build_workload(cell.model, cell.batch_size, cell.scale),
                cell.policy,
                config=config,
                profiling_error=cell.profiling_error,
                seed=cell.seed,
                observers=tuple(observers),
            )
            cached, cache_key = False, cell.cache_key()
        else:
            if observers:
                raise ConfigurationError(
                    "observers require in-process execution; drop the runner "
                    "or the observers"
                )
            out = runner.run_one(cell)
            result, cached, cache_key = out.result, out.cached, runner.cache_key(cell)
        return SessionResult(
            scenario=cell,
            result=result,
            config_fingerprint=config.fingerprint(),
            cache_key=cache_key,
            policy=POLICY_REGISTRY.describe(cell.policy),
            cached=cached,
        )

    def colocated_with(
        self,
        *others: "Scenario",
        name: str = "t0",
        arrivals: "ArrivalProcess | None" = None,
    ) -> "MultiTenantScenario":
        """Compose this scenario with others into a multi-tenant scenario.

        Returns an immutable
        :class:`~repro.experiments.tenancy.MultiTenantScenario` where this
        scenario is tenant ``name`` and each other scenario becomes tenant
        ``t1``, ``t2``, ... — extend further with ``with_tenant(...)`` for
        custom names or per-tenant arrival processes. ``arrivals`` (an
        :class:`~repro.experiments.tenancy.ArrivalProcess`) applies to every
        tenant created here; the default is a single request at time zero.
        """
        from .tenancy import ArrivalProcess, MultiTenantScenario, Tenant

        process = arrivals if arrivals is not None else ArrivalProcess.trace((0.0,))
        if not isinstance(process, ArrivalProcess):
            raise ConfigurationError("arrivals must be an ArrivalProcess")
        tenants = [Tenant(name=name, scenario=self, arrivals=process)]
        for index, scenario in enumerate(others, start=1):
            if not isinstance(scenario, Scenario):
                raise ConfigurationError(
                    f"colocated_with takes Scenario instances, got {type(scenario).__name__}"
                )
            tenants.append(
                Tenant(name=f"t{index}", scenario=scenario, arrivals=process)
            )
        return MultiTenantScenario(tuple(tenants))


#: The name the sweep layer's specs and figures use for a :class:`Scenario`.
SweepCell = Scenario


@dataclass(frozen=True)
class SessionResult:
    """A simulation result plus the provenance of how it was produced.

    Attribute access falls through to the wrapped
    :class:`~repro.sim.results.SimulationResult`, so
    ``outcome.normalized_performance`` works directly on a session result.
    """

    #: The resolved scenario that produced this result.
    scenario: Scenario
    #: The raw simulation result (bit-identical to a ``run_policy`` call).
    result: SimulationResult
    #: Content hash of the exact :class:`~repro.config.SystemConfig` simulated.
    config_fingerprint: str
    #: Sweep-cache content key of :attr:`scenario`.
    cache_key: str
    #: Registered metadata of the policy (name, aliases, display, description).
    policy: Mapping[str, Any]
    #: True when the result was served from a runner's on-disk cache.
    cached: bool = False

    def __getattr__(self, item: str) -> Any:
        # Only called for names not found on SessionResult itself. Guard the
        # delegation target so a partially initialised instance (pickling,
        # copy) raises AttributeError instead of recursing.
        if item.startswith("_") or item == "result":
            raise AttributeError(item)
        return getattr(self.result, item)

    def summary(self) -> dict[str, Any]:
        """The result summary augmented with provenance columns."""
        summary = dict(self.result.summary())
        summary["config_fingerprint"] = self.config_fingerprint[:12]
        summary["cache_key"] = self.cache_key[:12]
        return summary

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump: result payload plus full provenance."""
        return {
            "scenario": self.scenario.to_dict(),
            "result": self.result.to_dict(),
            "config_fingerprint": self.config_fingerprint,
            "cache_key": self.cache_key,
            "policy": dict(self.policy),
            "cached": self.cached,
        }


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered collection of sweep cells."""

    name: str
    cells: tuple[Scenario, ...]

    @classmethod
    def grid(
        cls,
        name: str,
        models: Sequence[str],
        policies: Sequence[str | None],
        batch_sizes: Sequence[int | None] = (None,),
        scale: str = "paper",
        patches: Sequence[ConfigPatch] = (ConfigPatch(),),
        profiling_errors: Sequence[float] = (0.0,),
        seed: int = 0,
    ) -> "SweepSpec":
        """Cartesian product over every axis, in deterministic order.

        Models vary slowest so that consecutive cells share a workload (and
        therefore a per-process workload memo entry).
        """
        cells = tuple(
            Scenario(
                model=model,
                policy=policy,
                batch_size=batch,
                scale=scale,
                patch=patch,
                profiling_error=error,
                seed=seed,
            )
            for model, batch, patch, error, policy in product(
                models, batch_sizes, patches, profiling_errors, policies
            )
        )
        return cls(name=name, cells=cells)


@dataclass(frozen=True)
class PlanEntry:
    """One spec cell in a :class:`SweepPlan`: its key and whether the cache
    already holds its result."""

    cell: Scenario
    key: str
    cached: bool


@dataclass(frozen=True)
class SweepPlan:
    """Manifest of a sweep: every cell's cache key and hit/miss status.

    The plan is computed without running anything, so a caller (the CLI's
    ``--resume``, or :func:`~repro.experiments.reporting.generate_report`'s
    provenance tables) can see up front which cells are already warm in the
    cache and which will have to execute.
    """

    name: str
    entries: tuple[PlanEntry, ...]

    @classmethod
    def build(
        cls,
        spec: SweepSpec | Iterable[Scenario],
        cache: ResultCache | None = None,
        key: Callable[[Scenario], str] = Scenario.cache_key,
    ) -> "SweepPlan":
        name = spec.name if isinstance(spec, SweepSpec) else "cells"
        cells = list(spec.cells if isinstance(spec, SweepSpec) else spec)
        keys = list(map(key, cells))
        warm = {key: cache is not None and cache.has(key) for key in dict.fromkeys(keys)}
        entries = tuple(
            PlanEntry(cell=cell, key=key, cached=warm[key]) for cell, key in zip(cells, keys)
        )
        return cls(name=name, entries=entries)

    def counts(self) -> dict[str, int]:
        """Cell/distinct/warm/to-execute totals (distinct keys, not spec cells)."""
        distinct: dict[str, bool] = {}
        for entry in self.entries:
            distinct.setdefault(entry.key, entry.cached)
        warm = sum(1 for cached in distinct.values() if cached)
        return {
            "cells": len(self.entries),
            "distinct": len(distinct),
            "warm": warm,
            "to_execute": len(distinct) - warm,
        }


@dataclass
class CellResult:
    """One executed (or cache-served) cell plus its raw JSON-safe payload."""

    cell: Scenario
    payload: dict
    cached: bool = False

    @property
    def kind(self) -> str:
        return self.payload["kind"]

    @property
    def workload(self) -> dict:
        """Metadata of the profiled workload (footprint ratio, kernel count, ...)."""
        return self.payload["workload"]

    @property
    def result(self) -> SimulationResult:
        """The simulation result (simulation cells only)."""
        if self.kind != "simulation":
            raise ConfigurationError(f"cell {self.cell} is a {self.kind} cell, not a simulation")
        return SimulationResult.from_dict(self.payload["result"])

    @property
    def characterization(self) -> CharacterizationResult:
        """The §3 characterization (characterization cells only)."""
        if self.kind != "characterization":
            raise ConfigurationError(f"cell {self.cell} is a {self.kind} cell, not a characterization")
        data = self.payload["characterization"]
        return CharacterizationResult(
            model_name=data["model_name"],
            total_fraction=np.asarray(data["total_fraction"], dtype=np.float64),
            active_fraction=np.asarray(data["active_fraction"], dtype=np.float64),
            inactive_period_seconds=np.asarray(data["inactive_period_seconds"], dtype=np.float64),
            inactive_period_bytes=np.asarray(data["inactive_period_bytes"], dtype=np.float64),
        )


def execute_cell(cell: Scenario) -> dict:
    """Run one cell to a JSON-safe payload (the worker-process entry point).

    The workload is always built against its *default* config; a non-empty
    patch only changes the configuration the policy is simulated under. That
    mirrors the paper's sensitivity studies, which profile each workload once
    and re-run the simulation as the system varies.

    Simulation cells call :func:`~repro.experiments.harness.run_policy` with
    the arguments an in-process :meth:`Scenario.run` passes, so direct, sweep
    and CLI runs are bit-identical. ``REPRO_PLUGINS`` modules are imported
    first so policies and models registered out-of-tree resolve inside worker
    processes too.
    """
    load_plugins()
    cell = cell.resolved()
    workload = build_workload(cell.model, cell.batch_size, cell.scale)
    meta = {
        "model": workload.name,
        "batch_size": workload.batch_size,
        "scale": workload.scale,
        "num_kernels": workload.graph.num_kernels,
        "memory_footprint_ratio": workload.memory_footprint_ratio,
    }
    if cell.policy is None:
        char = characterize_workload(workload.report)
        return {
            "kind": "characterization",
            "workload": meta,
            "characterization": {
                "model_name": char.model_name,
                "total_fraction": char.total_fraction.tolist(),
                "active_fraction": char.active_fraction.tolist(),
                "inactive_period_seconds": char.inactive_period_seconds.tolist(),
                "inactive_period_bytes": char.inactive_period_bytes.tolist(),
            },
        }
    result = run_policy(
        workload,
        cell.policy,
        config=cell.config(),
        profiling_error=cell.profiling_error,
        seed=cell.seed,
    )
    return {"kind": "simulation", "workload": meta, "result": result.to_dict()}


def _execute_cell_dict(cell_dict: dict) -> dict:
    """Pickle-friendly worker wrapper mapping dicts to dicts."""
    return execute_cell(Scenario.from_dict(cell_dict))


class SweepRunner:
    """Executes sweep specs with deduplication, caching and optional parallelism.

    Args:
        jobs: Worker processes to fan cells out over; ``None``, 0 or 1 runs
            in-process (and benefits from the warm workload memo). Negative
            values are rejected.
        cache: Persistent result cache; ``None`` disables on-disk caching
            (in-run deduplication of identical cells still applies).
    """

    def __init__(self, jobs: int | None = None, cache: ResultCache | None = None):
        if jobs is not None and jobs < 0:
            raise ConfigurationError(
                f"jobs must be >= 0 (None, 0 and 1 run serially), got {jobs}"
            )
        self.jobs = jobs
        self.cache = cache
        #: (hits, executed) counters of the most recent :meth:`run`.
        self.last_stats: dict[str, int] = {"cells": 0, "cache_hits": 0, "executed": 0}
        #: The deterministic ``PerfCounters`` dict of every payload any
        #: :meth:`run` served or executed, by cache key (``{}`` for a payload
        #: without a simulation result), so a report can total simulator work
        #: without decoding cache entries again.
        self.perf_counters: dict[str, dict] = {}
        #: Cache keys computed so far, by cell: a report plans and then runs
        #: every figure's cells. Equal cells share one key, so the cell
        #: itself is the memo key.
        self._keys: dict[Scenario, str] = {}

    def cache_key(self, cell: Scenario) -> str:
        """``cell.cache_key()``, computed once per distinct cell per runner."""
        key = self._keys.get(cell)
        if key is None:
            key = self._keys[cell] = cell.cache_key()
        return key

    def plan(self, spec: SweepSpec | Iterable[Scenario]) -> SweepPlan:
        """Manifest of a spec against this runner's cache (no execution)."""
        return SweepPlan.build(spec, cache=self.cache, key=self.cache_key)

    def run(self, spec: SweepSpec | Iterable[Scenario]) -> list[CellResult]:
        """Execute every cell, returning results in spec order.

        The output is independent of ``jobs`` and of cache state: payloads are
        produced by the same :func:`execute_cell` code path everywhere and
        results are reassembled in submission order.
        """
        from ..core.plan_cache import snapshot_counters

        cells = list(spec.cells if isinstance(spec, SweepSpec) else spec)
        keys = list(map(self.cache_key, cells))
        plan_cache_before = snapshot_counters()
        payloads: dict[str, dict] = {}
        cached_keys: set[str] = set()

        if self.cache is not None:
            for key in keys:
                if key not in payloads:
                    hit = self.cache.get(key)
                    if hit is not None:
                        payloads[key] = hit
                        cached_keys.add(key)

        # Deduplicate misses by content key; execute each distinct cell once.
        miss_order: list[str] = []
        miss_cells: list[Scenario] = []
        for cell, key in zip(cells, keys):
            if key not in payloads and key not in miss_order:
                miss_order.append(key)
                miss_cells.append(cell)

        if miss_cells:
            if self.jobs and self.jobs > 1 and len(miss_cells) > 1:
                cell_dicts = [cell.to_dict() for cell in miss_cells]
                workers = min(self.jobs, len(miss_cells))
                # Chunk consecutive cells onto the same worker so cells that
                # share a workload reuse its per-process build_workload memo
                # (the default chunksize of 1 would scatter them).
                chunksize = max(1, len(cell_dicts) // workers)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    executed = list(pool.map(_execute_cell_dict, cell_dicts, chunksize=chunksize))
            else:
                executed = [execute_cell(cell) for cell in miss_cells]
            for cell, key, payload in zip(miss_cells, miss_order, executed):
                payloads[key] = payload
                if self.cache is not None:
                    self.cache.put(key, payload, cell=cell.to_dict())

        for key, payload in payloads.items():
            self.perf_counters[key] = payload.get("result", {}).get("perf", {})
        self.last_stats = {
            "cells": len(cells),
            "cache_hits": sum(1 for key in keys if key in cached_keys),
            "executed": len(miss_cells),
        }
        # Plan-fragment cache deltas for this run. Only the serial in-process
        # path plans in this process; pool workers warm their own
        # process-global caches, so their outcomes are not visible here.
        for counter, count in snapshot_counters().items():
            self.last_stats[f"plan_{counter}"] = count - plan_cache_before[counter]
        return [
            CellResult(cell=cell, payload=payloads[key], cached=key in cached_keys)
            for cell, key in zip(cells, keys)
        ]

    def run_one(self, cell: Scenario) -> CellResult:
        """Execute a single cell."""
        return self.run([cell])[0]
