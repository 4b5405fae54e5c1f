"""GPU memory pressure timeline used by the compile-time scheduler (§4.3)."""

from __future__ import annotations

import numpy as np

from ..errors import SchedulingError
from .vitality import InactivePeriod


def period_slot_indices(period: InactivePeriod, num_slots: int) -> np.ndarray:
    """Kernel-slot indices covered by a period's free interval.

    Wrap-around periods cover the tail of this iteration plus the head of the
    next; both map onto the same per-iteration slot axis.
    """
    if not period.wraps_around:
        return np.arange(period.start_slot + 1, period.end_slot, dtype=np.int64)
    tail = np.arange(period.start_slot + 1, num_slots, dtype=np.int64)
    head = np.arange(0, period.end_slot - num_slots, dtype=np.int64)
    return np.concatenate([tail, head])


class MemoryPressureTimeline:
    """Tracks estimated GPU memory pressure per kernel slot.

    The scheduler evaluates eviction candidates against this curve: the
    *benefit* of evicting a tensor during a period is the amount by which the
    over-capacity region shrinks (the shaded area in Figure 7).
    """

    def __init__(self, baseline_pressure: np.ndarray, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise SchedulingError("GPU capacity must be positive")
        self._pressure = np.asarray(baseline_pressure, dtype=np.float64).copy()
        if self._pressure.ndim != 1 or len(self._pressure) == 0:
            raise SchedulingError("baseline pressure must be a non-empty 1-D array")
        self._capacity = float(capacity_bytes)
        # Incrementally maintained over-capacity curve: benefit evaluation is
        # the scheduler's hottest call, and keeping the excess array current
        # (mutations touch few slots) turns each call into one slice + min +
        # sum instead of a full subtract/clamp over the window. The touched
        # slots are recomputed with the exact same elementwise formula, so the
        # values are bit-identical to recomputing from scratch.
        self._excess = np.maximum(self._pressure - self._capacity, 0.0)
        # The scheduler re-evaluates the same periods' benefit thousands of
        # times, but the benefit only changes when the curve does — cache it
        # per mutation epoch (bumped by apply_eviction/add_bytes).
        self._benefit_cache: dict[tuple[int, int, bool, int], tuple[int, float]] = {}
        self._epoch = 0
        self._peak_cache: tuple[int, float] | None = None

    # -- views -------------------------------------------------------------

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def num_slots(self) -> int:
        return len(self._pressure)

    @property
    def pressure(self) -> np.ndarray:
        """A read-only copy of the current pressure curve."""
        return self._pressure.copy()

    def pressure_view(self) -> np.ndarray:
        """The live pressure curve *without* a defensive copy.

        For hot read-only loops (the prefetcher probes one slot at a time);
        callers must not mutate the returned array.
        """
        return self._pressure

    @property
    def peak(self) -> float:
        cached = self._peak_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        peak = float(self._pressure.max())
        self._peak_cache = (self._epoch, peak)
        return peak

    @property
    def excess(self) -> np.ndarray:
        """Per-slot bytes above GPU capacity."""
        return self._excess.copy()

    @property
    def total_excess(self) -> float:
        """Integral (over slots) of the over-capacity region."""
        return float(self._excess.sum())

    def fits(self) -> bool:
        """True once the projected pressure never exceeds GPU capacity."""
        return bool(self.peak <= self._capacity)

    def slot_pressure(self, slot: int) -> float:
        return float(self._pressure[slot])

    def headroom(self, slots: np.ndarray) -> np.ndarray:
        """Free bytes below capacity for the given slots (can be negative)."""
        return self._capacity - self._pressure[slots]

    # -- benefit evaluation --------------------------------------------------

    def eviction_benefit(self, period: InactivePeriod) -> float:
        """Critical memory-pressure reduction of evicting a tensor during ``period``.

        Matches the paper's definition: the area of the over-capacity region
        removed if the tensor is absent during its inactive period.
        """
        key = (period.start_slot, period.end_slot, period.wraps_around, period.size_bytes)
        cached = self._benefit_cache.get(key)
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        # A period's slots are contiguous (wrap-around ones are two contiguous
        # pieces), so slicing replaces fancy indexing — same values, same
        # summation order, no index array. The pre-clamped excess curve makes
        # each evaluation one slice + min + sum; a Hypothesis test in
        # tests/test_scheduler.py pins it byte-equal to recomputing the clamp
        # from the raw pressure curve on every call.
        if period.wraps_around:
            excess = np.concatenate(
                [
                    self._excess[period.start_slot + 1 :],
                    self._excess[: max(period.end_slot - self.num_slots, 0)],
                ]
            )
        else:
            excess = self._excess[period.start_slot + 1 : max(period.end_slot, 0)]
        if excess.size == 0:
            benefit = 0.0
        else:
            benefit = float(np.minimum(excess, period.size_bytes).sum())
        self._benefit_cache[key] = (self._epoch, benefit)
        return benefit

    # -- mutation --------------------------------------------------------------

    def apply_eviction(self, period: InactivePeriod, absent_slots: np.ndarray) -> None:
        """Reduce pressure for the slots during which the tensor is actually absent."""
        if absent_slots.size == 0:
            return
        self._epoch += 1
        self._pressure[absent_slots] -= period.size_bytes
        if (self._pressure[absent_slots] < -1e-6).any():
            raise SchedulingError("pressure became negative; eviction applied twice?")
        self._excess[absent_slots] = np.maximum(
            self._pressure[absent_slots] - self._capacity, 0.0
        )

    def add_bytes(self, slots: np.ndarray, nbytes: float) -> None:
        """Add ``nbytes`` of residency for the given slots (prefetch moved earlier)."""
        if slots.size == 0:
            return
        self._epoch += 1
        self._pressure[slots] += nbytes
        self._excess[slots] = np.maximum(self._pressure[slots] - self._capacity, 0.0)
