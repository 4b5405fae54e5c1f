"""Declarative experiment sweeps with parallel execution and result caching.

The paper's evaluation is a grid of (model x policy x batch x system-config x
profiling-error) cells. This module turns that grid into data:

* :class:`SweepCell` — one simulation (or, with ``policy=None``, one workload
  characterization) described entirely by values, so it can be hashed,
  shipped to a worker process, and cached on disk;
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
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..analysis.characterization import CharacterizationResult, characterize_workload
from ..config import SystemConfig, whole_bytes
from ..errors import ConfigurationError
from ..registry import load_plugins
from ..sim import SimulationResult
from .cache import CACHE_SCHEMA_VERSION, ResultCache
from .harness import build_workload, canonicalize_cell_fields, default_config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import Scenario


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
class SweepCell:
    """One point of an experiment grid, described entirely by values.

    ``policy=None`` marks a characterization cell (the §3 figures): the
    workload is built and analyzed but no policy is simulated.
    """

    model: str
    policy: str | None = "g10"
    batch_size: int | None = None
    scale: str = "paper"
    patch: ConfigPatch = field(default_factory=ConfigPatch)
    profiling_error: float = 0.0
    seed: int = 0

    def resolved(self) -> "SweepCell":
        """Canonical form: normalized model and policy names, explicit batch,
        seed zeroed when no profiling noise is applied (the seed is unused
        then). Alias spellings ("G10+Host", "uvm") share the canonical
        cell's cache key, so they deduplicate and resume together."""
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

    def scenario(self) -> "Scenario":
        """This cell as a :class:`~repro.api.Scenario` (simulation cells only)."""
        from ..api import Scenario

        if self.policy is None:
            raise ConfigurationError(
                f"characterization cell {self} has no policy to build a scenario from"
            )
        return Scenario(
            model=self.model,
            policy=self.policy,
            batch_size=self.batch_size,
            scale=self.scale,
            patch=self.patch,
            profiling_error=self.profiling_error,
            seed=self.seed,
        )

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
    def from_dict(cls, data: dict) -> "SweepCell":
        return cls(
            model=data["model"],
            policy=data["policy"],
            batch_size=data["batch_size"],
            scale=data["scale"],
            patch=ConfigPatch.from_dict(data.get("patch", {})),
            profiling_error=data.get("profiling_error", 0.0),
            seed=data.get("seed", 0),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered collection of sweep cells."""

    name: str
    cells: tuple[SweepCell, ...]

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
            SweepCell(
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

    cell: SweepCell
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
        spec: SweepSpec | Iterable[SweepCell],
        cache: ResultCache | None = None,
        key: Callable[[SweepCell], str] = SweepCell.cache_key,
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

    cell: SweepCell
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


def execute_cell(cell: SweepCell) -> dict:
    """Run one cell to a JSON-safe payload (the worker-process entry point).

    The workload is always built against its *default* config; a non-empty
    patch only changes the configuration the policy is simulated under. That
    mirrors the paper's sensitivity studies, which profile each workload once
    and re-run the simulation as the system varies.

    Simulation cells execute through a :class:`~repro.api.Session` — the same
    path as ``Scenario(...).run()`` — so direct, sweep and CLI runs are
    bit-identical. ``REPRO_PLUGINS`` modules are imported first so policies
    and models registered out-of-tree resolve inside worker processes too.
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
    result = cell.scenario().session().run().result
    return {"kind": "simulation", "workload": meta, "result": result.to_dict()}


def _execute_cell_dict(cell_dict: dict) -> dict:
    """Pickle-friendly worker wrapper mapping dicts to dicts."""
    return execute_cell(SweepCell.from_dict(cell_dict))


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
        self._keys: dict[SweepCell, str] = {}

    def cache_key(self, cell: SweepCell) -> str:
        """``cell.cache_key()``, computed once per distinct cell per runner."""
        key = self._keys.get(cell)
        if key is None:
            key = self._keys[cell] = cell.cache_key()
        return key

    def plan(self, spec: SweepSpec | Iterable[SweepCell]) -> SweepPlan:
        """Manifest of a spec against this runner's cache (no execution)."""
        return SweepPlan.build(spec, cache=self.cache, key=self.cache_key)

    def run(self, spec: SweepSpec | Iterable[SweepCell]) -> list[CellResult]:
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
        miss_cells: list[SweepCell] = []
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

    def run_one(self, cell: SweepCell) -> CellResult:
        """Execute a single cell."""
        return self.run([cell])[0]
