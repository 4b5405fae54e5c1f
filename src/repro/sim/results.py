"""Result records produced by the execution simulator."""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from itertools import chain

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


#: The value types a serialized kernel-timing column may hold.
_INDEX_TYPES = frozenset({int})
_NUMBER_TYPES = frozenset({int, float})


def _timing_column(columns: dict, name: str, types: frozenset) -> list:
    """One serialized kernel-timing column, checked to be a list of ``types``."""
    column = columns.get(name)
    if not isinstance(column, list):
        raise SimulationError(f"kernel timing column {name!r} is missing or not a list")
    if not set(map(type, column)) <= types:
        kinds = " or ".join(sorted(t.__name__ for t in types))
        raise SimulationError(f"kernel timing column {name!r} holds a value that is not {kinds}")
    return column


def _read_timing_columns(columns: object) -> tuple[list[float], list[float]]:
    """Rebuild the ``ideal_durations`` and ``start_times`` columns from the
    layout :meth:`SimulationResult.to_dict` writes, in one pass."""
    if not isinstance(columns, dict):
        raise SimulationError("kernel_timings must be a dict of columns")
    durations = _timing_column(columns, "durations", _NUMBER_TYPES)
    duration_index = _timing_column(columns, "duration_index", _INDEX_TYPES)
    stalled = _timing_column(columns, "stalled", _INDEX_TYPES)
    stalled_start = _timing_column(columns, "stalled_start", _NUMBER_TYPES)
    kernels = len(duration_index)
    if duration_index and not 0 <= min(duration_index) <= max(duration_index) < len(durations):
        raise SimulationError(
            f"kernel timing duration_index points outside its {len(durations)} durations"
        )
    if not all(map(operator.lt, stalled, stalled[1:])):
        raise SimulationError("kernel timing column 'stalled' is not strictly increasing")
    if stalled and not 0 <= stalled[0] <= stalled[-1] < kernels:
        raise SimulationError(f"kernel timing column 'stalled' names no kernel of 0..{kernels - 1}")
    if len(stalled) != len(stalled_start):
        raise SimulationError(
            f"kernel timing columns differ in length: stalled {len(stalled)}, "
            f"stalled_start {len(stalled_start)}"
        )
    ideal = list(map(durations.__getitem__, duration_index))
    # A kernel that is not stalled starts at the previous kernel's finish:
    # the executor's own addition, in its order.
    start_of: list[float | None] = [None] * kernels
    for kernel, start in zip(stalled, stalled_start):
        start_of[kernel] = start
    starts: list[float] = []
    append = starts.append
    finish = 0.0
    for duration, start in zip(ideal, start_of):
        if start is None:
            start = finish
        append(start)
        finish = start + duration
    return ideal, starts


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
    #: Each kernel's ideal (compute-only) duration, in kernel-index order.
    ideal_durations: list[float] = field(default_factory=list)
    #: Each kernel's start time (its stalls resolved), in kernel-index order.
    #: A kernel's stall is derived from these two columns
    #: (:meth:`kernel_stalls`); a failed run has neither.
    start_times: list[float] = field(default_factory=list)
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
    #: Event-loop instrumentation (deterministic counters).
    perf: PerfCounters = field(default_factory=PerfCounters)

    def __post_init__(self) -> None:
        if len(self.ideal_durations) != len(self.start_times):
            raise SimulationError(
                f"{len(self.ideal_durations)} ideal durations but "
                f"{len(self.start_times)} start times"
            )
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

    # -- kernel timings ----------------------------------------------------------

    def kernel_stalls(self) -> list[float]:
        """Each kernel's stall: ``start_i - (start_{i-1} + ideal_{i-1})``, with
        a previous finish of 0.0 before the first kernel.

        These are the executor's own float operations (``ready - now``, where
        ``now`` is the previous ``ready + duration``), so the derived stalls
        equal the ones it observed bit for bit.
        """
        starts = self.start_times
        finishes = map(operator.add, starts, self.ideal_durations)
        return list(map(operator.sub, starts, chain((0.0,), finishes)))

    @property
    def kernel_timings(self) -> list[KernelTiming]:
        """One :class:`KernelTiming` record per kernel, built on request."""
        return list(
            map(
                KernelTiming,
                range(len(self.start_times)),
                self.ideal_durations,
                self.kernel_stalls(),
                self.start_times,
            )
        )

    @property
    def total_stall_time(self) -> float:
        return sum(self.kernel_stalls())

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
        """Per-kernel actual over ideal duration, 1.0 where the ideal duration
        is not positive (Figure 13's distribution)."""
        return np.asarray(
            [
                1.0 if ideal <= 0 else (ideal + stall) / ideal
                for ideal, stall in zip(self.ideal_durations, self.kernel_stalls())
            ],
            dtype=np.float64,
        )

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

        ``kernel_timings`` stores only what cannot be re-derived, as four
        lists: ``durations`` holds each distinct ideal duration once (ordered
        by bit pattern), ``duration_index`` one index into it per kernel, and
        ``stalled`` the ascending indices of the kernels whose start is not
        bitwise the previous kernel's finish (0.0 before the first kernel),
        with their starts in ``stalled_start``. Every other start is the
        previous finish. Stalls are not stored: :meth:`kernel_stalls` derives
        them. An infinite execution time (failed runs) is stored as
        ``None`` so the output is strict RFC-8259 JSON rather than the
        ``Infinity`` literal.
        """
        ideal = np.asarray(self.ideal_durations, dtype=np.float64)
        starts = np.asarray(self.start_times, dtype=np.float64)
        # Distinct and stalled are decided on IEEE-754 bit patterns, which
        # tell -0.0 from 0.0 (``==`` and a float-keyed dict do not).
        _, first_use, duration_index = np.unique(
            ideal.view(np.int64), return_index=True, return_inverse=True
        )
        previous_finish = np.zeros_like(starts)
        with np.errstate(all="ignore"):  # an overflow is data, not an error
            np.add(starts[:-1], ideal[:-1], out=previous_finish[1:])
        stalled = np.flatnonzero(starts.view(np.int64) != previous_finish.view(np.int64))
        traffic = self.traffic
        return {
            "model_name": self.model_name,
            "batch_size": self.batch_size,
            "policy_name": self.policy_name,
            "ideal_time": self.ideal_time,
            "execution_time": self.execution_time if math.isfinite(self.execution_time) else None,
            "kernel_timings": {
                "durations": ideal[first_use].tolist(),
                "duration_index": duration_index.tolist(),
                "stalled": stalled.tolist(),
                "stalled_start": starts[stalled].tolist(),
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
        column is missing, not a list or holds a value of the wrong type; when
        a duration index is out of range; when ``stalled`` is not strictly
        increasing or names a kernel that does not exist; and when
        ``stalled`` and ``stalled_start`` differ in length.
        """
        execution_time = data["execution_time"]
        if execution_time is None:  # JSON stores inf as null
            execution_time = float("inf")
        ideal_durations, start_times = _read_timing_columns(data.get("kernel_timings"))
        return cls(
            model_name=data["model_name"],
            batch_size=data["batch_size"],
            policy_name=data["policy_name"],
            ideal_time=data["ideal_time"],
            execution_time=execution_time,
            ideal_durations=ideal_durations,
            start_times=start_times,
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
