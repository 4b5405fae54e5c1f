"""GPU memory pressure timeline used by the compile-time scheduler (§4.3)."""

from __future__ import annotations

import numpy as np

from ..errors import SchedulingError
from .vitality import InactivePeriod

#: Byte counts must stay below this bound: every integer below 2**53 is a
#: float64, so the float views of the timeline (``peak``, the benefit) are
#: exact, and so are float64 sums of its terms while they stay below it.
EXACT_BYTES_BOUND = 2**53


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


def _whole_bytes(value: float, what: str) -> int:
    """``value`` as an int, or a :class:`SchedulingError` if it is not a
    whole number of bytes (NaN, infinite and fractional values are not)."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise SchedulingError(f"{what} must be a number of bytes, got {value!r}") from None
    if not number.is_integer():
        raise SchedulingError(f"{what} must be a whole number of bytes, got {value!r}")
    return int(number)


def _whole_byte_curve(values: np.ndarray) -> np.ndarray:
    """A pressure curve as int64 bytes, or a :class:`SchedulingError`."""
    if values.ndim != 1 or len(values) == 0:
        raise SchedulingError("baseline pressure must be a non-empty 1-D array")
    if values.dtype.kind not in "biuf":
        raise SchedulingError(f"baseline pressure must be numeric, not {values.dtype}")
    if values.dtype.kind == "f":
        if not np.isfinite(values).all():
            raise SchedulingError("baseline pressure must be finite (no NaN or infinity)")
        if (values != np.trunc(values)).any():
            raise SchedulingError("baseline pressure must be whole bytes")
    if (values < 0).any():
        raise SchedulingError("baseline pressure cannot be negative")
    if values.max() >= EXACT_BYTES_BOUND:
        raise SchedulingError("baseline pressure must stay below 2**53 bytes")
    return values.astype(np.int64)


class MemoryPressureTimeline:
    """Tracks estimated GPU memory pressure per kernel slot.

    The scheduler evaluates eviction candidates against this curve: the
    *benefit* of evicting a tensor during a period is the amount by which the
    over-capacity region shrinks (the shaded area in Figure 7).

    The pressure curve and the capacity must be whole bytes below 2**53
    (:data:`EXACT_BYTES_BOUND`): a NaN, infinite, negative, fractional or
    larger value raises :class:`SchedulingError`, and so does a fractional
    amount passed to :meth:`add_bytes`. The curve is kept as int64, so every
    benefit is an exact integer sum, equal to a float64 sum of the same terms
    while that sum stays below 2**53.
    """

    def __init__(self, baseline_pressure: np.ndarray, capacity_bytes: float):
        capacity = _whole_bytes(capacity_bytes, "GPU capacity")
        if capacity <= 0:
            raise SchedulingError("GPU capacity must be positive")
        if capacity >= EXACT_BYTES_BOUND:
            raise SchedulingError("GPU capacity must stay below 2**53 bytes")
        self._pressure = _whole_byte_curve(np.asarray(baseline_pressure))
        self._capacity = capacity
        # The over-capacity curve, kept current by the mutations (they touch
        # few slots).
        self._excess = np.maximum(self._pressure - capacity, 0)
        # size -> prefix sums of min(excess, size): entry i sums slots
        # [0, i). The scheduler scores the same sizes many times between two
        # mutations, and with a prefix every score is two lookups. Mutations
        # drop the prefixes and the cached span of over-capacity slots.
        self._prefix: dict[int, np.ndarray] = {}
        self._excess_span: tuple[int, int] | None = None
        self._peak: float | None = None

    # -- views -------------------------------------------------------------

    @property
    def capacity(self) -> float:
        return float(self._capacity)

    @property
    def num_slots(self) -> int:
        return len(self._pressure)

    @property
    def pressure(self) -> np.ndarray:
        """A copy of the current pressure curve (int64 bytes)."""
        return self._pressure.copy()

    def pressure_view(self) -> np.ndarray:
        """The live pressure curve *without* a defensive copy.

        For hot read-only loops (the prefetcher probes one slot at a time);
        callers must not mutate the returned array.
        """
        return self._pressure

    @property
    def peak(self) -> float:
        if self._peak is None:
            self._peak = float(self._pressure.max())
        return self._peak

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
        return self.peak <= self._capacity

    def slot_pressure(self, slot: int) -> float:
        return float(self._pressure[slot])

    def headroom(self, slots: np.ndarray) -> np.ndarray:
        """Free bytes below capacity for the given slots (can be negative)."""
        return self._capacity - self._pressure[slots]

    # -- benefit evaluation --------------------------------------------------

    def eviction_benefit(self, period: InactivePeriod) -> float:
        """Critical memory-pressure reduction of evicting a tensor during ``period``.

        Matches the paper's definition: the area of the over-capacity region
        removed if the tensor is absent during its inactive period, i.e. the
        sum of ``min(excess, size)`` over the period's slots. A wrap-around
        period covers the tail of the iteration and the head of the next.
        """
        prefix = self._prefix.get(period.size_bytes)
        if prefix is None:
            prefix = self._build_prefix(period.size_bytes)
        n = len(prefix) - 1
        start = period.start_slot + 1
        if start > n:
            start = n
        stop = period.end_slot
        if period.wraps_around:
            head = stop - n
            if head < 0:
                head = 0
            elif head > n:
                head = n
            return float(prefix.item(n) - prefix.item(start) + prefix.item(head))
        if stop > n:
            stop = n
        return float(prefix.item(stop) - prefix.item(start))

    def _build_prefix(self, size: int) -> np.ndarray:
        # Outside the span [lo, hi) of over-capacity slots the terms are 0,
        # so only the span is summed (under a third of the slots, typically).
        if self._excess_span is None:
            over = np.flatnonzero(self._excess)
            self._excess_span = (int(over[0]), int(over[-1]) + 1) if over.size else (0, 0)
        lo, hi = self._excess_span
        prefix = np.empty(len(self._excess) + 1, dtype=np.int64)
        prefix[: lo + 1] = 0
        span = prefix[lo + 1 : hi + 1]
        np.minimum(self._excess[lo:hi], size, out=span)
        np.add.accumulate(span, out=span)
        prefix[hi + 1 :] = prefix[hi]
        self._prefix[size] = prefix
        return prefix

    # -- mutation --------------------------------------------------------------

    def apply_eviction(self, period: InactivePeriod, absent_slots: np.ndarray) -> None:
        """Reduce pressure for the slots during which the tensor is actually absent."""
        if absent_slots.size == 0:
            return
        reduced = self._pressure[absent_slots] - period.size_bytes
        if (reduced < 0).any():
            raise SchedulingError("pressure became negative; eviction applied twice?")
        self._set(absent_slots, reduced)

    def add_bytes(self, slots: np.ndarray, nbytes: float) -> None:
        """Add ``nbytes`` of residency for the given slots (prefetch moved earlier)."""
        amount = _whole_bytes(nbytes, "added residency")
        if slots.size == 0:
            return
        self._set(slots, self._pressure[slots] + amount)

    def _set(self, slots: np.ndarray, values: np.ndarray) -> None:
        self._pressure[slots] = values
        self._excess[slots] = np.maximum(values - self._capacity, 0)
        self._prefix.clear()
        self._excess_span = None
        self._peak = None
