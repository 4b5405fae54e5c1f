"""The Scenario/Session API: the library's composable entry point.

A :class:`Scenario` is an immutable, fluent description of one experiment —
which model, at which batch size and scale, on which system configuration,
under which migration policy::

    from repro import GB, Scenario

    scenario = (
        Scenario(model="bert")
        .with_batch_size(128)
        .with_gpu_memory(40 * GB)
        .with_profiling_error(0.10)
        .on_policy("g10")
    )
    outcome = scenario.run()
    print(outcome.normalized_performance, outcome.cache_key)

Every ``with_*``/``on_*`` method returns a *new* scenario, so partial
scenarios compose freely::

    base = Scenario("vit", scale="ci")
    results = {name: base.on_policy(name).run() for name in ("base_uvm", "g10")}

A scenario resolves lazily into a :class:`Session` — the executable form that
owns workload construction (memoized per process), system-configuration
resolution and execution — and running a session yields a
:class:`SessionResult`: the raw
:class:`~repro.sim.results.SimulationResult` *plus provenance* (the resolved
configuration fingerprint, the content-hash cache key shared with the sweep
cache, and the registered policy metadata).

Sessions are the unit of dispatch everywhere: the sweep runner's
:func:`~repro.experiments.sweep.execute_cell` executes each grid cell through
a session, so ``Scenario(...).run()`` is bit-identical to the same cell run
through ``SweepRunner``, the CLI, or the
:mod:`repro.experiments.harness` ``build_workload``/``run_policy`` engine
functions.

Models and policies resolve through the open registries
(:mod:`repro.registry`); anything registered with ``@register_policy`` /
``@register_model`` is immediately scenario-runnable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .experiments.tenancy import ArrivalProcess, MultiTenantScenario

from .config import SystemConfig, whole_bytes
from .errors import ConfigurationError
from .registry import MODEL_REGISTRY, POLICY_REGISTRY
from .sim import SimulationResult
from .sim.observer import SimObserver
from .sim.policy import MigrationPolicy
from .experiments.harness import (
    Workload,
    build_workload,
    canonicalize_cell_fields,
    default_config,
    run_policy,
    validate_noise,
)
from .experiments.sweep import ConfigPatch, SweepCell, SweepRunner


@dataclass(frozen=True)
class Scenario:
    """An immutable, declarative description of one simulation.

    Construct with keyword tweaks or chain the fluent ``with_*`` methods;
    both are equivalent. ``batch_size=None`` resolves to the model's
    registered Figure 11 default (scaled for CI workloads), and the system
    configuration defaults to the paper's Table 2 at the chosen scale, with
    ``patch`` applying declarative overrides on top.
    """

    model: str
    policy: str = "g10"
    batch_size: int | None = None
    scale: str = "paper"
    profiling_error: float = 0.0
    seed: int = 0
    patch: ConfigPatch = field(default_factory=ConfigPatch)
    #: Replaces the *default* (Table 2) configuration entirely when set;
    #: ``patch`` still applies on top.
    base_config: SystemConfig | None = None

    # -- fluent construction ---------------------------------------------------

    def _replace(self, **changes: Any) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def with_model(self, model: str) -> "Scenario":
        """A copy targeting a different registered model."""
        return self._replace(model=model)

    def on_policy(self, policy: str) -> "Scenario":
        """A copy simulated under a different registered policy."""
        return self._replace(policy=policy)

    #: Alias of :meth:`on_policy` for symmetry with the other setters.
    with_policy = on_policy

    def with_batch_size(self, batch_size: int | None) -> "Scenario":
        """A copy at an explicit batch size (``None`` restores the default)."""
        return self._replace(batch_size=batch_size)

    def at_scale(self, scale: str) -> "Scenario":
        """A copy at ``"paper"`` or ``"ci"`` scale."""
        return self._replace(scale=scale)

    with_scale = at_scale

    def with_profiling_error(self, error: float, seed: int | None = None) -> "Scenario":
        """A copy whose policy plans from noisy kernel durations (§7.6)."""
        return self._replace(
            profiling_error=error, seed=self.seed if seed is None else seed
        )

    def with_seed(self, seed: int) -> "Scenario":
        """A copy with a different profiling-noise seed."""
        return self._replace(seed=seed)

    def with_patch(self, patch: ConfigPatch) -> "Scenario":
        """A copy with a whole replacement :class:`ConfigPatch`."""
        return self._replace(patch=patch)

    def with_config(self, config: SystemConfig) -> "Scenario":
        """A copy whose *base* system configuration is ``config`` (not Table 2).

        The workload is **profiled and simulated** under ``config``. That is
        different from the declarative ``with_gpu_memory``-style overrides,
        which mirror the paper's sensitivity studies (and the legacy
        ``run_policy(..., config=...)`` argument): those profile the workload
        under the scale's default configuration and only *simulate* under the
        patched one. Declarative overrides still apply on top of ``config``.
        Note that scenarios with a custom base configuration cannot be
        expressed as sweep cells (see :meth:`cell`).
        """
        return self._replace(base_config=config)

    def _patched(self, **changes: Any) -> "Scenario":
        return self._replace(patch=dataclasses.replace(self.patch, **changes))

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
        """Canonical, validated form: normalized names, explicit batch size.

        Raises :class:`~repro.errors.ConfigurationError` (or
        :class:`~repro.errors.ModelError`) for unknown names, scales outside
        ``{"paper", "ci"}``, negative/out-of-range profiling error, or an
        out-of-range seed.
        """
        if self.scale not in ("paper", "ci"):
            raise ConfigurationError(
                f"unknown workload scale {self.scale!r}; expected 'paper' or 'ci'"
            )
        validate_noise(self.profiling_error, self.seed)
        # Scenarios and sweep cells canonicalize through the same rule, so a
        # session always executes exactly what its cache key describes.
        return self._replace(
            **canonicalize_cell_fields(
                self.model, self.policy, self.batch_size,
                self.scale, self.profiling_error, self.seed,
            )
        )

    def session(self) -> "Session":
        """Resolve into an executable :class:`Session`."""
        return Session(self)

    def run(
        self,
        observers: Sequence[SimObserver] = (),
        runner: SweepRunner | None = None,
    ) -> "SessionResult":
        """Shorthand for ``self.session().run(...)``."""
        return self.session().run(observers=observers, runner=runner)

    def cell(self) -> SweepCell:
        """This scenario as a sweep-grid cell (for specs and caching).

        Scenarios carrying a custom base configuration are not expressible as
        cells — cells derive their configuration from the scale's default plus
        the patch — and raise :class:`~repro.errors.ConfigurationError`.
        """
        if self.base_config is not None:
            raise ConfigurationError(
                "a scenario with a custom base configuration cannot be "
                "expressed as a sweep cell; use declarative with_*() "
                "overrides instead of with_config()"
            )
        resolved = self.resolved()
        return SweepCell(
            model=resolved.model,
            policy=resolved.policy,
            batch_size=resolved.batch_size,
            scale=resolved.scale,
            patch=resolved.patch,
            profiling_error=resolved.profiling_error,
            seed=resolved.seed,
        )

    def cache_key(self) -> str:
        """The sweep-cache content key this scenario's result is stored under."""
        return self.session().cache_key()

    def describe(self) -> dict[str, Any]:
        """JSON-safe summary of the resolved scenario (no execution)."""
        return self.session().describe()

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
        from .experiments.tenancy import ArrivalProcess, MultiTenantScenario, Tenant

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


class Session:
    """The executable form of a scenario.

    A session owns workload construction (served from the per-process memo,
    so sessions sharing a workload profile it once), the resolution of the
    simulated system configuration, and execution. Sessions are cheap to
    create; the expensive work happens lazily on first access to
    :attr:`workload` or in :meth:`run`.
    """

    def __init__(self, scenario: Scenario):
        self._scenario = scenario.resolved()
        self._workload: Workload | None = None

    @property
    def scenario(self) -> Scenario:
        """The resolved scenario this session executes."""
        return self._scenario

    @property
    def workload(self) -> Workload:
        """The profiled workload (built and memoized on first access)."""
        if self._workload is None:
            s = self._scenario
            self._workload = build_workload(
                s.model, s.batch_size, s.scale, config=s.base_config
            )
        return self._workload

    def config(self) -> SystemConfig:
        """The exact system configuration the simulation runs under."""
        s = self._scenario
        base = s.base_config or default_config(s.model, s.scale)
        return s.patch.apply(base)

    def config_fingerprint(self) -> str:
        """Content hash of :meth:`config` (provenance / cache-key component)."""
        return self.config().fingerprint()

    def cache_key(self) -> str:
        """The content-hash key this run is cached under by the sweep cache."""
        return self.cell().cache_key()

    def cell(self) -> SweepCell:
        """The sweep cell equivalent of this session (see :meth:`Scenario.cell`)."""
        return self._scenario.cell()

    def policy(self) -> "MigrationPolicy":
        """A fresh instance of the scenario's policy."""
        return POLICY_REGISTRY.create(self._scenario.policy)

    def policy_metadata(self) -> dict[str, Any]:
        """Registry metadata of the scenario's policy."""
        return POLICY_REGISTRY.describe(self._scenario.policy)

    def run(
        self,
        observers: Sequence[SimObserver] = (),
        runner: SweepRunner | None = None,
    ) -> "SessionResult":
        """Execute the session and return its result with provenance.

        Without a ``runner`` the simulation executes in-process (and
        ``observers`` receive kernel/migration events). With a
        :class:`~repro.experiments.sweep.SweepRunner` the run goes through the
        runner's cache and process pool instead — bit-identical results, but
        observers cannot cross the cache/process boundary and are rejected.
        """
        s = self._scenario
        config = self.config()
        cached = False
        cache_key: str | None
        if runner is not None:
            if observers:
                raise ConfigurationError(
                    "observers require in-process execution; drop the runner "
                    "or the observers"
                )
            cell = self.cell()
            out = runner.run_one(cell)
            result = out.result
            cached = out.cached
            cache_key = runner.cache_key(cell)
        else:
            sim_config = config
            if s.base_config is None and s.patch.is_empty():
                sim_config = None  # workload default; identical, skips a rebuild
            result = run_policy(
                self.workload,
                s.policy,
                config=sim_config,
                profiling_error=s.profiling_error,
                seed=s.seed,
                observers=tuple(observers),
            )
            cache_key = None if s.base_config is not None else self.cache_key()
        return SessionResult(
            scenario=s,
            result=result,
            config_fingerprint=config.fingerprint(),
            cache_key=cache_key,
            policy=self.policy_metadata(),
            cached=cached,
        )

    def describe(self) -> dict[str, Any]:
        """JSON-safe summary: scenario fields, config fingerprint, cache key."""
        s = self._scenario
        return {
            "model": s.model,
            "model_info": MODEL_REGISTRY.describe(s.model),
            "policy": s.policy,
            "policy_info": self.policy_metadata(),
            "batch_size": s.batch_size,
            "scale": s.scale,
            "profiling_error": s.profiling_error,
            "seed": s.seed,
            "patch": s.patch.to_dict(),
            "config_fingerprint": self.config_fingerprint(),
            "cache_key": None if s.base_config is not None else self.cache_key(),
        }


@dataclass(frozen=True)
class SessionResult:
    """A simulation result plus the provenance of how it was produced.

    Attribute access falls through to the wrapped
    :class:`~repro.sim.results.SimulationResult`, so
    ``outcome.normalized_performance`` works directly on a session result.
    """

    #: The resolved scenario that produced this result.
    scenario: Scenario
    #: The raw simulation result (bit-identical to a legacy harness run).
    result: SimulationResult
    #: Content hash of the exact :class:`~repro.config.SystemConfig` simulated.
    config_fingerprint: str
    #: Sweep-cache content key, or ``None`` for custom-base-config scenarios.
    cache_key: str | None
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
        if self.cache_key:
            summary["cache_key"] = self.cache_key[:12]
        return summary

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump: result payload plus full provenance."""
        return {
            "scenario": self.scenario.cell().to_dict()
            if self.scenario.base_config is None
            else {"model": self.scenario.model, "policy": self.scenario.policy},
            "result": self.result.to_dict(),
            "config_fingerprint": self.config_fingerprint,
            "cache_key": self.cache_key,
            "policy": dict(self.policy),
            "cached": self.cached,
        }
