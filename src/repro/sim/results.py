"""Result records produced by the execution simulator."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..uvm.migration import TrafficCounters


@dataclass(frozen=True, slots=True)
class KernelTiming:
    """Timing of one kernel in the simulated execution."""

    index: int
    ideal_duration: float
    stall: float
    start_time: float

    @property
    def actual_duration(self) -> float:
        return self.ideal_duration + self.stall

    @property
    def slowdown(self) -> float:
        """Actual over ideal duration (1.0 means no stall)."""
        if self.ideal_duration <= 0:
            return 1.0
        return self.actual_duration / self.ideal_duration


@dataclass
class PerfCounters:
    """Instrumentation of one simulator run: what the event loop actually did.

    No counter reads a wall clock. The serialized ones are *deterministic* —
    two runs of the same cell produce identical values — so they enter cached
    payloads without breaking bit-for-bit reproducibility; :attr:`plan_cache`
    is the one that stays out (see there).
    """

    #: Events the simulation loop processed (kernel boundaries + completions).
    events_processed: int = 0
    #: Kernels replayed.
    kernels_executed: int = 0
    #: 4 KB pages moved across the hierarchy by faults/prefetches/evictions.
    pages_moved: int = 0
    #: Leaf PTE updates charged by the unified page table.
    pte_updates: int = 0
    #: Demand page-fault events taken (mirrors ``SimulationResult.fault_events``).
    fault_events: int = 0
    #: Times a kernel had to wait on in-flight evictions for GPU space.
    eviction_stalls: int = 0
    #: Simulated seconds spent waiting on eviction drains for space.
    eviction_stall_seconds: float = 0.0
    #: Plan-fragment cache outcome of this run's planning phase ("full_hits",
    #: "fragment_hits", "misses" deltas). Not serialized, not compared: the
    #: outcome depends on what this *process* planned before, so identical
    #: cells may legitimately differ across runs — including it in payloads
    #: would break cross-mode bit-identity.
    plan_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        """JSON-safe dump of the deterministic counters only."""
        return {
            "events_processed": self.events_processed,
            "kernels_executed": self.kernels_executed,
            "pages_moved": self.pages_moved,
            "pte_updates": self.pte_updates,
            "fault_events": self.fault_events,
            "eviction_stalls": self.eviction_stalls,
            "eviction_stall_seconds": self.eviction_stall_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerfCounters":
        """Inverse of :meth:`to_dict`; tolerates payloads from older versions."""
        return cls(
            events_processed=data.get("events_processed", 0),
            kernels_executed=data.get("kernels_executed", 0),
            pages_moved=data.get("pages_moved", 0),
            pte_updates=data.get("pte_updates", 0),
            fault_events=data.get("fault_events", 0),
            eviction_stalls=data.get("eviction_stalls", 0),
            eviction_stall_seconds=data.get("eviction_stall_seconds", 0.0),
        )


def _timing_column(columns: dict, name: str) -> list:
    """One serialized kernel-timing column, checked to be a list."""
    column = columns.get(name)
    if not isinstance(column, list):
        raise SimulationError(f"kernel timing column {name!r} is missing or not a list")
    return column


@dataclass
class SimulationResult:
    """Everything a policy run produces, consumed by the experiment harness."""

    model_name: str
    batch_size: int
    policy_name: str
    #: Sum of kernel durations: the execution time of the infinite-memory ideal.
    ideal_time: float
    #: Simulated end-to-end execution time of one training iteration.
    execution_time: float
    kernel_timings: list[KernelTiming] = field(default_factory=list)
    traffic: TrafficCounters = field(default_factory=TrafficCounters)
    #: Bytes written to / read from the SSD (subset of ``traffic``).
    ssd_bytes_written: float = 0.0
    ssd_bytes_read: float = 0.0
    ssd_write_amplification: float = 1.0
    #: Number of demand page-fault events taken during execution.
    fault_events: int = 0
    #: Peak bytes resident in GPU / host memory during the run.
    peak_gpu_bytes: int = 0
    peak_host_bytes: int = 0
    #: True when the policy could not execute the workload (e.g. FlashNeuron
    #: with a kernel working set that exceeds GPU memory).
    failed: bool = False
    failure_reason: str = ""
    #: Event-loop instrumentation (deterministic counters + wall-time phases).
    perf: PerfCounters = field(default_factory=PerfCounters)

    def __post_init__(self) -> None:
        if not self.failed and self.execution_time + 1e-12 < self.ideal_time:
            raise SimulationError(
                "execution time cannot beat the infinite-memory ideal "
                f"({self.execution_time} < {self.ideal_time})"
            )

    # -- headline metrics ------------------------------------------------------

    @property
    def normalized_performance(self) -> float:
        """Throughput normalised to the ideal system (Figure 11's y-axis)."""
        if self.failed or self.execution_time <= 0:
            return 0.0
        return self.ideal_time / self.execution_time

    @property
    def slowdown(self) -> float:
        """Execution time over ideal time (>= 1.0)."""
        if self.failed:
            return float("inf")
        return self.execution_time / self.ideal_time

    def throughput(self) -> float:
        """Training throughput in samples per second (Figure 15's y-axis)."""
        if self.failed or self.execution_time <= 0:
            return 0.0
        return self.batch_size / self.execution_time

    @property
    def total_stall_time(self) -> float:
        return sum(t.stall for t in self.kernel_timings)

    @property
    def stall_fraction(self) -> float:
        """Fraction of execution time spent stalled (Figure 12's dark bars)."""
        if self.failed or self.execution_time <= 0:
            return 1.0
        return min(1.0, self.total_stall_time / self.execution_time)

    @property
    def overlap_fraction(self) -> float:
        """Fraction of execution time where compute proceeds (Figure 12's light bars)."""
        return 1.0 - self.stall_fraction

    def kernel_slowdowns(self) -> np.ndarray:
        """Per-kernel slowdown factors (Figure 13's distribution)."""
        return np.asarray([t.slowdown for t in self.kernel_timings], dtype=np.float64)

    def stalled_kernel_fraction(self, threshold: float = 1.01) -> float:
        """Fraction of kernels slowed beyond ``threshold`` x ideal."""
        slowdowns = self.kernel_slowdowns()
        if slowdowns.size == 0:
            return 0.0
        return float((slowdowns > threshold).mean())

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Stable JSON-safe representation of the complete result.

        Round-trips through :meth:`from_dict` without loss: every stored field
        (including per-kernel timings and traffic counters) is preserved, so
        derived metrics computed on a deserialized result are bit-identical to
        the original. This is the on-disk format of the sweep result cache.

        ``kernel_timings`` is stored as columns: three equal-length lists
        ``ideal_duration``, ``stall`` and ``start_time``, where a kernel's
        index is its list position. A timing whose ``index`` differs from its
        position raises :class:`~repro.errors.SimulationError`; executor
        results always pass, because
        :class:`~repro.graph.kernel.KernelTrace` only accepts kernel indices
        consecutive from zero. An infinite execution time (failed runs) is
        stored as ``None`` so the output is strict RFC-8259 JSON rather than
        the ``Infinity`` literal.
        """
        timings = self.kernel_timings
        for position, timing in enumerate(timings):
            if timing.index != position:
                raise SimulationError(
                    f"kernel timing at position {position} has index {timing.index}; "
                    "serialized timings are indexed by their list position"
                )
        traffic = self.traffic
        return {
            "model_name": self.model_name,
            "batch_size": self.batch_size,
            "policy_name": self.policy_name,
            "ideal_time": self.ideal_time,
            "execution_time": self.execution_time if math.isfinite(self.execution_time) else None,
            "kernel_timings": {
                "ideal_duration": [t.ideal_duration for t in timings],
                "stall": [t.stall for t in timings],
                "start_time": [t.start_time for t in timings],
            },
            "traffic": {f.name: getattr(traffic, f.name) for f in dataclasses.fields(traffic)},
            "ssd_bytes_written": self.ssd_bytes_written,
            "ssd_bytes_read": self.ssd_bytes_read,
            "ssd_write_amplification": self.ssd_write_amplification,
            "fault_events": self.fault_events,
            "peak_gpu_bytes": self.peak_gpu_bytes,
            "peak_host_bytes": self.peak_host_bytes,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
            "perf": self.perf.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Inverse of :meth:`to_dict`.

        Raises :class:`~repro.errors.SimulationError` when a kernel-timing
        column is missing or not a list, or the columns differ in length.
        """
        execution_time = data["execution_time"]
        if execution_time is None:  # JSON stores inf as null
            execution_time = float("inf")
        columns = data.get("kernel_timings")
        if not isinstance(columns, dict):
            raise SimulationError("kernel_timings must be a dict of columns")
        ideal, stall, start = (
            _timing_column(columns, name) for name in ("ideal_duration", "stall", "start_time")
        )
        if not len(ideal) == len(stall) == len(start):
            raise SimulationError(
                "kernel timing columns differ in length: "
                f"ideal_duration {len(ideal)}, stall {len(stall)}, start_time {len(start)}"
            )
        return cls(
            model_name=data["model_name"],
            batch_size=data["batch_size"],
            policy_name=data["policy_name"],
            ideal_time=data["ideal_time"],
            execution_time=execution_time,
            kernel_timings=list(map(KernelTiming, range(len(ideal)), ideal, stall, start)),
            traffic=TrafficCounters(**data["traffic"]),
            ssd_bytes_written=data["ssd_bytes_written"],
            ssd_bytes_read=data["ssd_bytes_read"],
            ssd_write_amplification=data["ssd_write_amplification"],
            fault_events=data["fault_events"],
            peak_gpu_bytes=data["peak_gpu_bytes"],
            peak_host_bytes=data["peak_host_bytes"],
            failed=data["failed"],
            failure_reason=data["failure_reason"],
            perf=PerfCounters.from_dict(data.get("perf", {})),
        )

    def summary(self) -> dict[str, float | str | bool]:
        """Compact dictionary used by reports and tests."""
        return {
            "model": self.model_name,
            "batch_size": self.batch_size,
            "policy": self.policy_name,
            "ideal_time_s": self.ideal_time,
            "execution_time_s": self.execution_time,
            "normalized_performance": self.normalized_performance,
            "throughput": self.throughput(),
            "stall_fraction": self.stall_fraction,
            "gpu_ssd_traffic_gb": self.traffic.gpu_ssd_bytes / 1e9,
            "gpu_host_traffic_gb": self.traffic.gpu_host_bytes / 1e9,
            "fault_events": self.fault_events,
            "failed": self.failed,
        }
