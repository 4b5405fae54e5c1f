"""Tensor vitality analysis (§4.2 of the paper).

The analyzer walks the profiled training-iteration kernel trace and derives,
for every tensor:

* the kernels that use it (its *active* slots);
* whether it is *global* (weights, optimizer state — alive across iterations)
  or *intermediate* (born at first use, dead after last use);
* its *inactive periods*: maximal intervals between two consecutive uses
  during which the tensor could be migrated out of GPU memory.

Global tensors additionally get a *wrap-around* period covering the gap from
their last use in one iteration to their first use in the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SchedulingError
from ..graph.tensor import TensorInfo
from ..graph.training import TrainingGraph


@dataclass(frozen=True)
class TensorUsage:
    """Lifetime summary of one tensor within a training iteration."""

    tensor_id: int
    size_bytes: int
    is_global: bool
    #: Kernel indices (sorted) at which the tensor is active.
    use_slots: tuple[int, ...]

    @property
    def birth_slot(self) -> int:
        """First kernel that touches the tensor."""
        return self.use_slots[0]

    @property
    def death_slot(self) -> int:
        """Last kernel that touches the tensor."""
        return self.use_slots[-1]


@dataclass(frozen=True)
class InactivePeriod:
    """One inactive period of a tensor.

    The tensor is last used by kernel ``start_slot`` and next used by kernel
    ``end_slot``; it may be absent from GPU memory strictly between the two.
    A *wrap-around* period models a global tensor's gap from its last use in
    this iteration to its first use in the next (``end_slot`` then refers to
    the next iteration's kernel index).
    """

    tensor_id: int
    size_bytes: int
    start_slot: int
    end_slot: int
    wraps_around: bool = False

    def __post_init__(self) -> None:
        if not self.wraps_around and self.end_slot <= self.start_slot:
            raise SchedulingError(
                f"inactive period of tensor {self.tensor_id} must end after it starts"
            )
        if self.size_bytes <= 0:
            raise SchedulingError("inactive period tensor size must be positive")

    @property
    def free_slots(self) -> range:
        """Kernel slots during which the tensor could be absent from GPU memory."""
        return range(self.start_slot + 1, self.end_slot)

    @property
    def num_free_slots(self) -> int:
        return max(0, self.end_slot - self.start_slot - 1)

    def duration(self, slot_end_times: np.ndarray, slot_start_times: np.ndarray) -> float:
        """Wall-clock length of the period given the kernel timeline."""
        n = len(slot_start_times)
        start_time = slot_end_times[min(self.start_slot, n - 1)]
        if self.wraps_around:
            iteration_time = float(slot_end_times[-1])
            end_time = iteration_time + float(slot_start_times[self.end_slot % n])
        else:
            end_time = float(slot_start_times[self.end_slot])
        return max(0.0, end_time - float(start_time))


@dataclass
class VitalityReport:
    """Full output of the vitality analysis for one training iteration."""

    graph: TrainingGraph
    usages: dict[int, TensorUsage]
    periods: list[InactivePeriod]
    #: Ideal start time of each kernel (seconds, no stalls).
    slot_start_times: np.ndarray
    #: Ideal end time of each kernel.
    slot_end_times: np.ndarray
    #: Per-slot resident-byte demand assuming no migrations (all live tensors on GPU).
    baseline_pressure: np.ndarray = field(init=False)
    #: Per-slot bytes of tensors actively used by the executing kernel.
    active_bytes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.baseline_pressure = self._compute_baseline_pressure()
        self.active_bytes = self._compute_active_bytes()

    # -- derived state ----------------------------------------------------

    def _compute_baseline_pressure(self) -> np.ndarray:
        num_slots = self.graph.num_kernels
        pressure = np.zeros(num_slots, dtype=np.float64)
        for usage in self.usages.values():
            if usage.is_global:
                start, end = 0, num_slots - 1
            else:
                start, end = usage.birth_slot, usage.death_slot
            pressure[start : end + 1] += usage.size_bytes
        return pressure

    def _compute_active_bytes(self) -> np.ndarray:
        num_slots = self.graph.num_kernels
        active = np.zeros(num_slots, dtype=np.float64)
        for kernel in self.graph.kernels:
            active[kernel.index] = sum(
                self.graph.tensor(tid).size_bytes for tid in kernel.tensor_ids
            )
        return active

    # -- queries ---------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self.graph.num_kernels

    @property
    def peak_pressure(self) -> float:
        """Peak resident-byte demand of the un-migrated iteration."""
        return float(self.baseline_pressure.max()) if len(self.baseline_pressure) else 0.0

    @property
    def peak_active_bytes(self) -> float:
        """Largest working set of any single kernel (must always fit in GPU memory)."""
        return float(self.active_bytes.max()) if len(self.active_bytes) else 0.0

    def usage(self, tensor_id: int) -> TensorUsage:
        return self.usages[tensor_id]

    def tensor(self, tensor_id: int) -> TensorInfo:
        return self.graph.tensor(tensor_id)

    def periods_for(self, tensor_id: int) -> list[InactivePeriod]:
        """All inactive periods of one tensor."""
        return [p for p in self.periods if p.tensor_id == tensor_id]

    def period_duration(self, period: InactivePeriod) -> float:
        """Wall-clock length of a period under ideal (no-stall) timing."""
        return period.duration(self.slot_end_times, self.slot_start_times)

    def memory_footprint_ratio(self, gpu_capacity_bytes: int) -> float:
        """Peak memory demand relative to GPU capacity (the paper's ``M`` metric)."""
        if gpu_capacity_bytes <= 0:
            raise SchedulingError("GPU capacity must be positive")
        return self.peak_pressure / gpu_capacity_bytes


class TensorVitalityAnalyzer:
    """Extracts tensor lifetimes and inactive periods from a training graph."""

    def __init__(self, graph: TrainingGraph):
        if graph.num_kernels == 0:
            raise SchedulingError("cannot analyze an empty training graph")
        if any(k.duration <= 0 for k in graph.kernels):
            raise SchedulingError(
                "kernels must carry profiled durations; run profile_training_graph first"
            )
        self._graph = graph

    def analyze(self) -> VitalityReport:
        """Run the analysis and return the full report."""
        graph = self._graph
        use_slots: dict[int, list[int]] = {}
        for kernel in graph.kernels:
            for tid in kernel.tensor_ids:
                use_slots.setdefault(tid, []).append(kernel.index)

        usages: dict[int, TensorUsage] = {}
        for tid, slots in use_slots.items():
            tensor = graph.tensor(tid)
            usages[tid] = TensorUsage(
                tensor_id=tid,
                size_bytes=tensor.size_bytes,
                is_global=tensor.is_global,
                use_slots=tuple(sorted(set(slots))),
            )

        periods = self._extract_periods(usages)
        trace = graph.trace()
        starts = np.asarray(trace.start_times(), dtype=np.float64)
        ends = np.asarray(trace.end_times(), dtype=np.float64)
        return VitalityReport(
            graph=graph,
            usages=usages,
            periods=periods,
            slot_start_times=starts,
            slot_end_times=ends,
        )

    def _extract_periods(self, usages: dict[int, TensorUsage]) -> list[InactivePeriod]:
        periods: list[InactivePeriod] = []
        num_slots = self._graph.num_kernels
        for usage in usages.values():
            slots = usage.use_slots
            for previous, following in zip(slots, slots[1:]):
                if following - previous > 1:
                    periods.append(
                        InactivePeriod(
                            tensor_id=usage.tensor_id,
                            size_bytes=usage.size_bytes,
                            start_slot=previous,
                            end_slot=following,
                        )
                    )
            if usage.is_global:
                # The gap from the last use of this iteration to the first use
                # of the next iteration (e.g. a weight after its backward pass).
                gap = (num_slots - 1 - usage.death_slot) + usage.birth_slot
                if gap > 0:
                    periods.append(
                        InactivePeriod(
                            tensor_id=usage.tensor_id,
                            size_bytes=usage.size_bytes,
                            start_slot=usage.death_slot,
                            end_slot=num_slots + usage.birth_slot,
                            wraps_around=True,
                        )
                    )
        periods.sort(key=lambda p: (p.start_slot, p.end_slot, p.tensor_id))
        return periods


def analyze_vitality(graph: TrainingGraph) -> VitalityReport:
    """Convenience wrapper: build the analyzer and run it."""
    return TensorVitalityAnalyzer(graph).analyze()
