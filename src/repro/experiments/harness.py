"""Shared machinery for building workloads and running policies.

Workloads come in two scales:

* ``"paper"`` — the full model architectures at the paper's batch sizes,
  against the Table 2 system configuration;
* ``"ci"`` — depth-reduced models whose GPU/host memory capacities are scaled
  by the same factor as the workload footprint, preserving every
  footprint-to-capacity and traffic-to-bandwidth ratio while running in a few
  hundred milliseconds. The goldens and the tier-1 tests use this scale.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from ..config import SystemConfig, paper_config
from ..core.vitality import TensorVitalityAnalyzer, VitalityReport
from ..errors import ConfigurationError
from ..graph.training import TrainingGraph, expand_training
from ..models.registry import build_model, normalize_model_name
from ..profiling import perturb_trace, profile_training_graph
from ..registry import MODEL_REGISTRY, POLICY_REGISTRY
from ..baselines import make_policy
from ..sim import SimulationResult
from ..sim.engine import simulate

#: Maximum profiling-noise seed accepted by the harness (stored in cache keys
#: and JSON artifacts as a plain 32-bit value).
MAX_SEED = 2**32 - 1


@dataclass(frozen=True)
class Workload:
    """A profiled training iteration plus the system configuration to run it on."""

    name: str
    batch_size: int
    scale: str
    graph: TrainingGraph = field(compare=False, repr=False)
    report: VitalityReport = field(compare=False, repr=False)
    config: SystemConfig = field(compare=False, repr=False)

    @property
    def memory_footprint_ratio(self) -> float:
        """Peak live footprint relative to GPU capacity (the paper's M metric)."""
        return self.report.memory_footprint_ratio(self.config.gpu.memory_bytes)


_CACHE: dict[tuple, Workload] = {}


def clear_workload_cache() -> None:
    """Drop memoized workloads (tests use this to bound memory)."""
    _CACHE.clear()


def default_batch_size(model: str) -> int:
    """The Figure 11 batch size for a model (its registered default).

    Models registered without a ``default_batch_size`` must be run with an
    explicit batch size.
    """
    key = normalize_model_name(model)
    batch = MODEL_REGISTRY.metadata(key).get("default_batch_size")
    if batch is None:
        raise ConfigurationError(
            f"model {key!r} has no registered default batch size; "
            "pass batch_size explicitly"
        )
    return batch


def scale_batch(batch_size: int, scale: str) -> int:
    """Shrink a paper-scale batch size for CI-scale workloads (/4, floored at 8)."""
    if scale == "ci":
        return max(batch_size // 4, 8)
    return batch_size


def resolve_batch_size(model: str, scale: str = "paper", batch_size: int | None = None) -> int:
    """The batch size a workload will actually train with.

    ``None`` resolves to the Figure 11 default, shrunk by :func:`scale_batch`
    for CI-scale workloads — the same rule :func:`build_workload` applies.
    """
    if batch_size is not None:
        return batch_size
    return scale_batch(default_batch_size(model), scale)


def default_config(model: str, scale: str = "paper") -> SystemConfig:
    """The system configuration a workload defaults to at a given scale.

    Paper scale is Table 2 verbatim; CI scale shrinks GPU/host capacities by
    the model's footprint-scale factor so the memory-pressure regime matches.
    """
    if scale not in ("paper", "ci"):
        raise ConfigurationError(f"unknown workload scale {scale!r}")
    config = paper_config()
    if scale == "ci":
        factor = MODEL_REGISTRY.metadata(model).get("ci_capacity_scale", 1.0)
        config = config.with_gpu_memory(int(config.gpu.memory_bytes * factor))
        config = config.with_host_memory(int(config.host_memory_bytes * factor))
    return config


def build_workload(
    model: str,
    batch_size: int | None = None,
    scale: str = "paper",
    config: SystemConfig | None = None,
) -> Workload:
    """Build, expand and profile one workload (memoized).

    Args:
        model: Any recognised model name.
        batch_size: Training batch size; defaults to the Figure 11 value
            (scaled down by 4x for CI-scale workloads).
        scale: ``"paper"`` or ``"ci"``.
        config: Optional system configuration override. For CI scale the
            default configuration has its GPU/host capacities shrunk to keep
            the paper's memory-pressure regime.
    """
    if scale not in ("paper", "ci"):
        raise ConfigurationError(f"unknown workload scale {scale!r}")
    key = normalize_model_name(model)
    batch_size = resolve_batch_size(key, scale, batch_size)
    if config is None:
        config = default_config(key, scale)

    # Key the memo on the config's *value* hash: keying on id(config) would
    # hand back a stale workload when a GC'd config's id is reused.
    cache_key = (key, batch_size, scale, config.fingerprint())
    cached = _CACHE.get(cache_key)
    if cached is not None:
        return cached

    overrides = MODEL_REGISTRY.metadata(key).get("ci_overrides", {}) if scale == "ci" else {}
    graph = build_model(key, batch_size, **overrides)
    training = profile_training_graph(expand_training(graph), config)
    report = TensorVitalityAnalyzer(training).analyze()
    workload = Workload(
        name=key,
        batch_size=batch_size,
        scale=scale,
        graph=training,
        report=report,
        config=config,
    )
    _CACHE[cache_key] = workload
    return workload


def _is_whole(value: object) -> bool:
    """True for an integer, or a real number with no fractional part."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    )


def canonicalize_cell_fields(
    model: str,
    policy: str | None,
    batch_size: int | None,
    scale: str,
    profiling_error: float,
    seed: int,
) -> dict:
    """The validation and canonicalization rule of ``Scenario.resolved()``.

    Rejects a scale other than ``"paper"`` or ``"ci"``, profiling noise that
    :func:`validate_noise` rejects, and a batch size or seed that is not a
    whole number, with :class:`~repro.errors.ConfigurationError`. Then
    normalizes the model and policy names through the registries, resolves
    the effective batch size as a plain int, makes the profiling error a
    plain float, and zeroes the (otherwise unused) seed when no profiling
    noise is applied — one implementation, so a cache key can never drift
    from what a run actually executes.
    """
    if scale not in ("paper", "ci"):
        raise ConfigurationError(
            f"unknown workload scale {scale!r}; expected 'paper' or 'ci'"
        )
    if not _is_whole(seed):
        raise ConfigurationError(f"seed must be an integer in [0, {MAX_SEED}], got {seed!r}")
    validate_noise(profiling_error, int(seed))
    model = normalize_model_name(model)
    batch = resolve_batch_size(model, scale, batch_size)
    if not _is_whole(batch):
        raise ConfigurationError(f"batch size must be a whole number, got {batch_size!r}")
    return {
        "model": model,
        "policy": None if policy is None else POLICY_REGISTRY.resolve(policy),
        # A plain int: 8, 8.0 and np.int64(8) are one cell and must share
        # one cache key.
        "batch_size": int(batch),
        # A plain float, with -0.0 folded to 0.0 by ``+ 0.0``: 0, 0.0 and
        # -0.0 are one cell and must share one cache key.
        "profiling_error": float(profiling_error) + 0.0,
        # int() keeps numpy and whole float seeds JSON-safe for cell
        # serialization and the cache key.
        "seed": int(seed) if profiling_error > 0 else 0,
    }


def validate_noise(profiling_error: float, seed: int) -> None:
    """Reject out-of-range profiling-noise parameters.

    Negative errors used to be silently treated as "no noise"; they are now a
    :class:`~repro.errors.ConfigurationError`, as are NaN, errors >= 1 (the
    noise model is multiplicative in ``[1 - e, 1 + e]``) and seeds outside
    the 32-bit range the cache key serializes.
    """
    if not 0 <= profiling_error < 1:
        raise ConfigurationError(
            f"profiling_error must be in [0, 1) (got {profiling_error}): "
            "noise is multiplicative in [1 - e, 1 + e]"
        )
    if (
        isinstance(seed, bool)
        or not isinstance(seed, numbers.Integral)
        or not 0 <= seed <= MAX_SEED
    ):
        raise ConfigurationError(
            f"seed must be an integer in [0, {MAX_SEED}], got {seed!r}"
        )


def run_policy(
    workload: Workload,
    policy_name: str,
    config: SystemConfig | None = None,
    profiling_error: float = 0.0,
    seed: int = 0,
    observers: tuple = (),
) -> SimulationResult:
    """Simulate one policy on one workload.

    ``profiling_error`` perturbs the kernel durations the *policy* plans with,
    while the simulator executes the unperturbed trace — exactly the §7.6
    robustness experiment. ``observers`` are
    :class:`~repro.sim.observer.SimObserver` instances notified of kernel and
    migration events during the run.
    """
    validate_noise(profiling_error, seed)
    config = config or workload.config
    policy = make_policy(policy_name)
    if profiling_error > 0:
        planning_graph = perturb_trace(workload.graph, profiling_error, seed)
        planning_report = TensorVitalityAnalyzer(planning_graph).analyze()
        policy = _PrePlanned(policy, planning_report)
    # The single simulation code path: every entry point funnels through
    # repro.sim.engine.simulate, so simulator setup cannot drift.
    return simulate(
        workload.graph, config, policy, workload.report, observers=observers
    )


def run_policies(
    workload: Workload,
    policy_names: list[str] | tuple[str, ...],
    config: SystemConfig | None = None,
) -> dict[str, SimulationResult]:
    """Simulate several policies on one workload."""
    return {name: run_policy(workload, name, config) for name in policy_names}


class _PrePlanned:
    """Wrap a policy so its compile-time planning sees noisy kernel durations."""

    def __init__(self, inner, planning_report: VitalityReport):
        self._inner = inner
        self._planning_report = planning_report
        self.name = inner.name
        self.enforce_capacity = inner.enforce_capacity

    def setup(self, context):
        from ..sim.policy import PolicyContext

        noisy_context = PolicyContext(
            config=context.config,
            graph=self._planning_report.graph,
            report=self._planning_report,
        )
        self._inner.setup(noisy_context)

    def __getattr__(self, item):
        return getattr(self._inner, item)
