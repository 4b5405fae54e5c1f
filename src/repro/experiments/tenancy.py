"""Multi-tenant scenario composition: arrival processes, SLO metrics, figure.

This is the entropy-bearing half of the multi-tenant simulation. The
deterministic replay engine lives in :mod:`repro.sim.tenancy` and never
samples anything; here we resolve seeded arrival processes into concrete
arrival/think times, compose immutable :class:`Tenant` records into a
:class:`MultiTenantScenario`, provision the shared system from the tenants'
individual configs, and aggregate the engine's outcome into fairness/SLO
metrics (p50/p99 request latency, slowdown vs. solo, Jain's fairness index,
per-tenant eviction stalls and SSD-GC interference).

Seeding follows the existing ``ConfigurationError``-validated plumbing
(:func:`~repro.experiments.harness.validate_noise`): the base seed is bounded
to 32 bits, and each tenant derives its own stream as
``seed XOR crc32(tenant_name)`` so arrival samples depend only on the tenant's
identity — never on the order tenants were registered. Sampling uses a seeded
``random.Random`` instance (CPython guarantees the Mersenne Twister stream is
stable across versions, which keeps the committed goldens byte-identical).
"""

from __future__ import annotations

import math
import operator
import random
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..sim.results import PerfCounters
from ..sim.tenancy import SharedSystem, TenancyOutcome, TenantTrace, simulate_tenancy
from .harness import MAX_SEED, validate_noise
from .sweep import Scenario, SessionResult, SweepRunner, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig

#: Workloads mixed in the contention-sweep figure (tenants cycle through them).
TENANCY_MODELS: tuple[str, ...] = ("bert", "vit")
#: Policies compared under contention (plain UVM vs. the paper's design).
TENANCY_POLICIES: tuple[str, ...] = ("base_uvm", "g10")
#: Tenant counts swept by the contention figure.
TENANCY_TENANTS: tuple[int, ...] = (1, 2, 4)
#: Total offered loads swept (fraction of one tenant's solo throughput).
TENANCY_LOADS: tuple[float, ...] = (0.5, 1.5)
#: Requests each tenant issues in the contention figure.
TENANCY_REQUESTS = 4
#: Base seed of the figure's Poisson arrival processes.
TENANCY_SEED = 1023
#: Most tenants ``repro run --tenants`` co-locates (the figure sweeps at most
#: 4). With :data:`MAX_REQUESTS` it bounds the largest accepted run: 16 bert
#: tenants of 1024 requests each take ~5 s at CI scale on 2 vCPUs.
MAX_TENANTS = 16
#: Most requests one Poisson arrival process issues (``repro run
#: --requests``; the figure issues 4 per tenant).
MAX_REQUESTS = 1024


def derive_tenant_seed(name: str, seed: int) -> int:
    """Per-tenant arrival seed: stable under tenant registration order."""
    return (seed ^ zlib.crc32(name.encode("utf-8"))) & MAX_SEED


@dataclass(frozen=True)
class ArrivalProcess:
    """How one tenant's requests arrive: open-loop Poisson or closed-loop trace.

    ``poisson`` is open loop: interarrival gaps are exponential with mean
    ``solo_latency / load`` (or ``1 / rate`` when an absolute rate is given),
    sampled from a seeded generator. ``trace`` is closed loop: request ``i``
    arrives ``think_times[i]`` after request ``i-1`` completes (``relative``
    think times are multiples of the tenant's solo latency).
    """

    kind: str
    load: float = 0.0
    rate: float = 0.0
    requests: int = 1
    seed: int = 0
    think_times: tuple[float, ...] = ()
    relative_think: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "trace"):
            raise ConfigurationError(f"unknown arrival process kind {self.kind!r}")
        validate_noise(0.0, self.seed)
        if self.kind == "poisson":
            if not (0 <= self.load < math.inf and 0 <= self.rate < math.inf):
                raise ConfigurationError(
                    f"poisson load/rate must be finite and >= 0, got "
                    f"load={self.load}, rate={self.rate}"
                )
            if (self.load > 0) == (self.rate > 0):
                raise ConfigurationError(
                    "poisson arrivals need exactly one of load/rate, both positive"
                )
            if not 1 <= self.requests <= MAX_REQUESTS:
                raise ConfigurationError(
                    f"poisson arrivals need 1 to {MAX_REQUESTS} requests, got {self.requests}"
                )
        else:
            if not self.think_times:
                raise ConfigurationError("trace arrivals need at least one think time")
            if not all(0 <= t < math.inf for t in self.think_times):
                raise ConfigurationError("trace think times must be finite and >= 0")

    @classmethod
    def poisson(
        cls,
        load: float = 0.0,
        rate: float = 0.0,
        requests: int = TENANCY_REQUESTS,
        seed: int = 0,
    ) -> "ArrivalProcess":
        """Open-loop Poisson arrivals at a relative ``load`` or absolute ``rate``."""
        return cls(kind="poisson", load=load, rate=rate, requests=requests, seed=seed)

    @classmethod
    def trace(
        cls, think_times: Sequence[float], relative: bool = False
    ) -> "ArrivalProcess":
        """Closed-loop trace-driven arrivals with explicit think times."""
        return cls(kind="trace", think_times=tuple(think_times), relative_think=relative)

    def resolve(
        self, name: str, solo_latency: float
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Materialise ``(arrivals, think_times)`` for a tenant's solo latency."""
        if self.kind == "trace":
            if self.relative_think:
                return (), tuple(t * solo_latency for t in self.think_times)
            return (), self.think_times
        if self.rate > 0:
            effective_rate = self.rate
        else:
            if solo_latency <= 0:
                raise ConfigurationError(
                    f"tenant {name!r} has non-positive solo latency; "
                    "use an absolute rate instead of a relative load"
                )
            effective_rate = self.load / solo_latency
        rng = random.Random(derive_tenant_seed(name, self.seed))
        arrivals: list[float] = []
        now = 0.0
        for _ in range(self.requests):
            now += rng.expovariate(effective_rate)
            arrivals.append(now)
        return tuple(arrivals), ()

    def to_dict(self) -> dict[str, object]:
        """JSON-safe provenance of this arrival process."""
        payload: dict[str, object] = {"kind": self.kind}
        if self.kind == "poisson":
            payload.update(requests=self.requests, seed=self.seed)
            payload["load" if self.load > 0 else "rate"] = self.load or self.rate
        else:
            payload.update(
                think_times=list(self.think_times), relative=self.relative_think
            )
        return payload


@dataclass(frozen=True)
class Tenant:
    """One named tenant: an immutable scenario plus its arrival process."""

    name: str
    scenario: Scenario
    arrivals: ArrivalProcess

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")


@dataclass(frozen=True)
class TenantOutcome:
    """SLO metrics of one tenant in a multi-tenant run, with solo provenance."""

    name: str
    model: str
    policy: str
    arrivals: ArrivalProcess
    solo_latency: float
    latencies: tuple[float, ...]
    queue_delays: tuple[float, ...]
    p50_latency: float
    p99_latency: float
    mean_slowdown: float
    eviction_stalls: int
    eviction_stall_seconds: float
    gc_interference_seconds: float
    times_evicted: int
    spill_bytes_written: int
    spill_bytes_read: int
    cache_key: str
    config_fingerprint: str

    def to_dict(self) -> dict[str, object]:
        """JSON-safe dump, stable for golden files."""
        return {
            "model": self.model,
            "policy": self.policy,
            "arrivals": self.arrivals.to_dict(),
            "requests": len(self.latencies),
            "solo_latency": self.solo_latency,
            "latencies": list(self.latencies),
            "queue_delays": list(self.queue_delays),
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "mean_slowdown": self.mean_slowdown,
            "eviction_stalls": self.eviction_stalls,
            "eviction_stall_seconds": self.eviction_stall_seconds,
            "gc_interference_seconds": self.gc_interference_seconds,
            "times_evicted": self.times_evicted,
            "spill_bytes_written": self.spill_bytes_written,
            "spill_bytes_read": self.spill_bytes_read,
            "cache_key": self.cache_key,
            "config_fingerprint": self.config_fingerprint,
        }

    def summary(self) -> dict[str, object]:
        """Compact row used by the CLI table."""
        return {
            "tenant": self.name,
            "model": self.model,
            "policy": self.policy,
            "requests": len(self.latencies),
            "solo_latency_s": self.solo_latency,
            "p50_latency_s": self.p50_latency,
            "p99_latency_s": self.p99_latency,
            "mean_slowdown": self.mean_slowdown,
            "eviction_stalls": self.eviction_stalls,
            "stall_s": self.eviction_stall_seconds,
            "gc_s": self.gc_interference_seconds,
        }


@dataclass(frozen=True)
class MultiTenantResult:
    """Outcome of one colocated simulation: per-tenant SLOs plus fairness."""

    tenants: dict[str, TenantOutcome]
    fairness: float
    makespan: float
    perf: PerfCounters
    system: SharedSystem

    def to_dict(self) -> dict[str, object]:
        """JSON-safe dump, stable for golden files."""
        return {
            "tenants": {name: outcome.to_dict() for name, outcome in self.tenants.items()},
            "fairness": self.fairness,
            "makespan": self.makespan,
            "perf": self.perf.to_dict(),
            "system": {
                "gpu_capacity_bytes": self.system.gpu_capacity_bytes,
                "spill_write_bandwidth": self.system.spill_write_bandwidth,
                "spill_read_bandwidth": self.system.spill_read_bandwidth,
                "ssd_capacity_bytes": self.system.ssd_capacity_bytes,
                "gc_alpha": self.system.gc_alpha,
            },
        }

    def summary_rows(self) -> list[dict[str, object]]:
        """One table row per tenant, in name order."""
        return [outcome.summary() for outcome in self.tenants.values()]


@dataclass(frozen=True)
class MultiTenantScenario:
    """An immutable combinator of tenants sharing one GPU + SSD.

    Built either directly, via :meth:`with_tenant`, or from
    ``Scenario.colocated_with(...)``. ``run`` resolves every tenant's solo
    run first (served from the sweep cache when a runner is supplied), so
    composing tenants never re-simulates a cached workload.
    """

    tenants: tuple[Tenant, ...]
    gc_alpha: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("a multi-tenant scenario needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"tenant names must be unique, got {names}")
        if not 0 <= self.gc_alpha < math.inf:
            raise ConfigurationError(f"gc_alpha must be finite and >= 0, got {self.gc_alpha}")

    def with_tenant(
        self,
        name: str,
        scenario: Scenario,
        arrivals: ArrivalProcess | None = None,
    ) -> "MultiTenantScenario":
        """Return a new scenario with one more tenant (immutably)."""
        tenant = Tenant(
            name=name,
            scenario=scenario,
            arrivals=arrivals or ArrivalProcess.trace((0.0,)),
        )
        return replace(self, tenants=self.tenants + (tenant,))

    def with_gc_alpha(self, gc_alpha: float) -> "MultiTenantScenario":
        """Return a new scenario with a different GC interference strength."""
        return replace(self, gc_alpha=gc_alpha)

    def shared_system(self, configs: "Sequence[SystemConfig]") -> SharedSystem:
        """Provision the colocated hardware as the per-field max over tenants.

        Tenants may resolve to different configs (e.g. per-model CI-scale
        capacity); max-provisioning each field is deterministic and
        registration-order independent, and guarantees every tenant's solo
        working set still fits the shared GPU.
        """
        return SharedSystem(
            gpu_capacity_bytes=max(c.gpu.memory_bytes for c in configs),
            spill_write_bandwidth=max(
                min(c.ssd.write_bandwidth, c.interconnect.bandwidth) for c in configs
            ),
            spill_read_bandwidth=max(
                min(c.ssd.read_bandwidth, c.interconnect.bandwidth) for c in configs
            ),
            ssd_capacity_bytes=max(c.ssd.capacity_bytes for c in configs),
            gc_alpha=self.gc_alpha,
        )

    def run(self, runner: SweepRunner | None = None) -> MultiTenantResult:
        """Simulate all tenants colocated on the shared system."""
        ordered = sorted(self.tenants, key=lambda tenant: tenant.name)
        solo: dict[str, SessionResult] = {}
        traces: list[TenantTrace] = []
        configs: list["SystemConfig"] = []
        for tenant in ordered:
            session_result = tenant.scenario.run(runner=runner)
            result = session_result.result
            if result.failed:
                raise SimulationError(
                    f"tenant {tenant.name!r} cannot be colocated: its solo run "
                    f"failed under policy {session_result.policy!r} "
                    f"({result.failure_reason})"
                )
            if not result.start_times:
                raise SimulationError(
                    f"tenant {tenant.name!r} solo result has no kernel timings"
                )
            solo[tenant.name] = session_result
            configs.append(session_result.scenario.config())
            offsets = tuple(map(operator.add, result.start_times, result.ideal_durations))
            arrivals, think_times = tenant.arrivals.resolve(tenant.name, result.execution_time)
            traces.append(
                TenantTrace(
                    name=tenant.name,
                    offsets=offsets,
                    footprint_bytes=result.peak_gpu_bytes,
                    arrivals=arrivals,
                    think_times=think_times,
                )
            )
        system = self.shared_system(configs)
        outcome = simulate_tenancy(tuple(traces), system)
        return self._aggregate(ordered, solo, outcome, system)

    def _aggregate(
        self,
        ordered: Sequence[Tenant],
        solo: Mapping[str, SessionResult],
        outcome: TenancyOutcome,
        system: SharedSystem,
    ) -> MultiTenantResult:
        tenants: dict[str, TenantOutcome] = {}
        slowdowns: list[float] = []
        for tenant in ordered:
            stats = outcome.tenants[tenant.name]
            session_result = solo[tenant.name]
            solo_latency = session_result.result.execution_time
            latencies = np.asarray(stats.latencies, dtype=np.float64)
            mean_slowdown = float(latencies.mean() / solo_latency)
            slowdowns.append(mean_slowdown)
            tenants[tenant.name] = TenantOutcome(
                name=tenant.name,
                model=session_result.result.model_name,
                policy=str(session_result.policy.get("name", tenant.scenario.policy)),
                arrivals=tenant.arrivals,
                solo_latency=solo_latency,
                latencies=stats.latencies,
                queue_delays=stats.queue_delays,
                p50_latency=float(np.percentile(latencies, 50)),
                p99_latency=float(np.percentile(latencies, 99)),
                mean_slowdown=mean_slowdown,
                eviction_stalls=stats.eviction_stalls,
                eviction_stall_seconds=stats.eviction_stall_seconds,
                gc_interference_seconds=stats.gc_interference_seconds,
                times_evicted=stats.times_evicted,
                spill_bytes_written=stats.spill_bytes_written,
                spill_bytes_read=stats.spill_bytes_read,
                cache_key=session_result.cache_key,
                config_fingerprint=session_result.config_fingerprint,
            )
        return MultiTenantResult(
            tenants=dict(sorted(tenants.items())),
            fairness=jain_fairness(slowdowns),
            makespan=outcome.makespan,
            perf=outcome.perf,
            system=system,
        )


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant mean slowdowns (1.0 = fair)."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0:
        return 1.0
    return (total * total) / (len(values) * squares)


# -- the contention-sweep experiment ------------------------------------------------


def tenancy_spec(scale: str = "paper", models: Sequence[str] | None = None) -> SweepSpec:
    """The single-session cells underlying the contention sweep.

    The multi-tenant composition itself is pure arithmetic over these solo
    results, so warming exactly this grid makes the figure fully cacheable.
    """
    return SweepSpec.grid(
        "tenancy",
        models=tuple(models) if models else TENANCY_MODELS,
        policies=TENANCY_POLICIES,
        scale=scale,
    )


def tenancy_contention(
    scale: str = "paper",
    models: Sequence[str] | None = None,
    runner: SweepRunner | None = None,
) -> dict[str, dict[str, dict[str, object]]]:
    """Contention sweep: tenants x offered load x policy -> fairness/SLO metrics.

    Every tenant count splits the same total offered load, so columns are
    comparable: more tenants means more colocation pressure, not more work.
    """
    chosen = tuple(models) if models else TENANCY_MODELS
    results: dict[str, dict[str, dict[str, object]]] = {}
    for policy in TENANCY_POLICIES:
        by_cell: dict[str, dict[str, object]] = {}
        for count in TENANCY_TENANTS:
            for load in TENANCY_LOADS:
                tenants = tuple(
                    Tenant(
                        name=f"t{index}-{chosen[index % len(chosen)]}",
                        scenario=Scenario(
                            model=chosen[index % len(chosen)],
                            policy=policy,
                            scale=scale,
                        ),
                        arrivals=ArrivalProcess.poisson(
                            load=load / count,
                            requests=TENANCY_REQUESTS,
                            seed=TENANCY_SEED,
                        ),
                    )
                    for index in range(count)
                )
                run = MultiTenantScenario(tenants).run(runner=runner)
                per_tenant = {
                    name: {
                        "model": outcome.model,
                        "p50_latency": outcome.p50_latency,
                        "p99_latency": outcome.p99_latency,
                        "mean_slowdown": outcome.mean_slowdown,
                        "eviction_stalls": outcome.eviction_stalls,
                        "eviction_stall_seconds": outcome.eviction_stall_seconds,
                        "gc_interference_seconds": outcome.gc_interference_seconds,
                        "times_evicted": outcome.times_evicted,
                    }
                    for name, outcome in run.tenants.items()
                }
                by_cell[f"{count}x{load:g}"] = {
                    "tenants": count,
                    "offered_load": load,
                    "fairness": run.fairness,
                    "makespan": run.makespan,
                    "p99_latency": max(o.p99_latency for o in run.tenants.values()),
                    "mean_slowdown": float(
                        np.mean([o.mean_slowdown for o in run.tenants.values()])
                    ),
                    "eviction_stalls": run.perf.eviction_stalls,
                    "eviction_stall_seconds": run.perf.eviction_stall_seconds,
                    "per_tenant": per_tenant,
                }
        results[policy] = by_cell
    return results
