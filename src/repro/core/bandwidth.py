"""Compile-time channel bandwidth bookkeeping for the migration scheduler.

The scheduler plans transfers against a *fluid* model of the I/O channels: each
kernel slot ``k`` offers ``duration(k) * bandwidth`` bytes of capacity per
channel, and planned transfers consume that capacity slot by slot. This is the
compile-time counterpart of the runtime transfer engine in ``repro.sim``.

Channels:

* ``ssd_write`` / ``ssd_read`` — the SSD's internal flash bandwidth;
* ``pcie_out`` / ``pcie_in`` — the GPU's PCIe link (shared by SSD and host
  traffic), one budget per direction.

A GPU->SSD eviction consumes ``ssd_write`` **and** ``pcie_out``; a host-bound
eviction consumes only ``pcie_out``; prefetches mirror this on the read side.

Implementation note — this is the planner's innermost loop (thousands of
probes and reservations per paper-scale cell), and most walks end within a
slot or two, too soon for numpy's per-call overhead to pay off (measured on
the cold ``planner_cells`` benchmark). The per-slot state is therefore plain
Python float lists, and each (channel-combination, direction) keeps a
path-compressed *skip index* over exhausted slots so repeated walks jump
straight to the next open slot. The walks subtract availabilities
*sequentially* (``remaining -= available`` in slot order): IEEE-754 addition
does not reassociate, so any cumulative-sum shortcut would round differently
and move the goldens.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..config import SystemConfig
from ..errors import SchedulingError

#: Remaining capacity of a slot whose budget is fully consumed. The skip
#: indices rely on this being *exact*: `reserve` subtracts the precise
#: remaining availability, so an exhausted slot holds IEEE-754 zero (not
#: merely a small number), stays exhausted forever (capacity only ever
#: decreases), and contributes exactly 0.0 bytes to any walk that skips it.
EXHAUSTED_SLOT = 0.0  # repro-lint: exact-float


class Direction(Enum):
    """Transfer direction relative to the GPU."""

    OUT = "out"  # eviction: GPU -> SSD/host
    IN = "in"  # prefetch: SSD/host -> GPU

    # Members are singletons compared by identity, so they hash by identity
    # too (Enum's default hashes the member name in Python code, and every
    # channel walk looks up a (to_ssd, direction) key).
    __hash__ = object.__hash__


_Combo = tuple[bool, Direction]


class ChannelSchedule:
    """Tracks planned bandwidth consumption across kernel slots."""

    def __init__(self, slot_durations: np.ndarray, config: SystemConfig):
        durations = np.asarray(slot_durations, dtype=np.float64)
        if durations.ndim != 1 or len(durations) == 0:
            raise SchedulingError("slot durations must be a non-empty 1-D array")
        if (durations <= 0).any():
            raise SchedulingError("every kernel slot must have positive duration")
        self._durations = durations
        self._config = config
        self._capacities: dict[str, np.ndarray] = {
            "ssd_write": durations * config.ssd.write_bandwidth,
            "ssd_read": durations * config.ssd.read_bandwidth,
            "pcie_out": durations * config.interconnect.bandwidth,
            "pcie_in": durations * config.interconnect.bandwidth,
        }
        #: Remaining capacity per slot (hot-path state).
        self._available: dict[str, list[float]] = {
            name: capacity.tolist() for name, capacity in self._capacities.items()
        }
        #: (to_ssd, direction) -> the availability lists a transfer consumes.
        #: The PCIe list is shared by the to-host and to-SSD combos of a
        #: direction, so a reservation through one is seen by the other.
        self._combos: dict[_Combo, tuple[list[float], ...]] = {
            (False, Direction.OUT): (self._available["pcie_out"],),
            (True, Direction.OUT): (self._available["pcie_out"], self._available["ssd_write"]),
            (False, Direction.IN): (self._available["pcie_in"],),
            (True, Direction.IN): (self._available["pcie_in"], self._available["ssd_read"]),
        }
        #: Per-combo skip indices: ``skip[j] == j`` means slot ``j`` has not
        #: been seen exhausted; otherwise it points towards the next candidate
        #: in the walk direction (path-compressed on every walk).
        n = len(durations)
        self._skip_fwd = {key: list(range(n)) for key in self._combos}
        self._skip_bwd = {key: list(range(n)) for key in self._combos}
        #: (to_ssd, direction) -> (fixed latency, bandwidth) of one transfer,
        #: precomputed so the scheduler's cost term is two flops per call.
        interconnect = config.interconnect
        self._unloaded: dict[_Combo, tuple[float, float]] = {
            (True, Direction.OUT): (
                config.ssd.write_latency + interconnect.latency,
                min(interconnect.bandwidth, config.ssd.write_bandwidth),
            ),
            (True, Direction.IN): (
                config.ssd.read_latency + interconnect.latency,
                min(interconnect.bandwidth, config.ssd.read_bandwidth),
            ),
            (False, Direction.OUT): (
                interconnect.latency,
                min(interconnect.bandwidth, config.host_bandwidth),
            ),
            (False, Direction.IN): (
                interconnect.latency,
                min(interconnect.bandwidth, config.host_bandwidth),
            ),
        }

    # -- helpers -----------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return len(self._durations)

    @property
    def durations(self) -> np.ndarray:
        """The per-slot kernel durations the schedule was built from.

        Callers must not mutate the returned array.
        """
        return self._durations

    def utilization(self, channel: str) -> np.ndarray:
        """Per-slot utilization in [0, 1] of one channel."""
        return self._utilization_values(channel, 0, self.num_slots)

    def utilization_window(self, channel: str, start: int, stop: int) -> np.ndarray:
        """Utilization of one channel restricted to slots ``[start, stop)``.

        Identical values to ``utilization(channel)[start:stop]`` without
        materializing the full curve (the saturation test probes thousands of
        small windows per planning run).
        """
        return self._utilization_values(channel, max(start, 0), min(stop, self.num_slots))

    def _utilization_values(self, channel: str, start: int, stop: int) -> np.ndarray:
        if channel not in self._available:
            raise SchedulingError(f"unknown channel {channel!r}")
        capacity = self._capacities[channel][start:stop]
        available = np.asarray(self._available[channel][start:stop], dtype=np.float64)
        # 1 - available / capacity clamped to [0, 1], a slot without capacity
        # counting as idle: the values of np.where + np.clip, computed with
        # the ufuncs directly (the saturation test calls this per attempt).
        ratio = np.divide(available, capacity, out=np.ones_like(available), where=capacity > 0)
        used = np.subtract(1.0, ratio, out=ratio)
        return np.minimum(np.maximum(used, 0.0, out=used), 1.0, out=used)

    def available_bytes(self, to_ssd: bool, direction: Direction, slots: np.ndarray) -> np.ndarray:
        """Per-slot bytes still schedulable for a transfer of the given kind."""
        lists = self._combos[(to_ssd, direction)]
        available = np.asarray(lists[0], dtype=np.float64)[slots]
        for other in lists[1:]:
            available = np.minimum(available, np.asarray(other, dtype=np.float64)[slots])
        return available

    def _next_open_fwd(self, key: _Combo, slot: int) -> int:
        """First slot ``>= slot`` where every channel of ``key`` has capacity."""
        skip = self._skip_fwd[key]
        lists = self._combos[key]
        n = len(skip)
        j = slot
        path = []
        while j < n:
            k = skip[j]
            if k != j:
                path.append(j)
                j = k
                continue
            exhausted = False
            for values in lists:
                if values[j] == EXHAUSTED_SLOT:
                    exhausted = True
                    break
            if not exhausted:
                break
            skip[j] = j + 1
            j += 1
        for visited in path:
            skip[visited] = j
        return j

    def _next_open_bwd(self, key: _Combo, slot: int) -> int:
        """Last slot ``<= slot`` where every channel of ``key`` has capacity."""
        skip = self._skip_bwd[key]
        lists = self._combos[key]
        j = slot
        path = []
        while j >= 0:
            k = skip[j]
            if k != j:
                path.append(j)
                j = k
                continue
            exhausted = False
            for values in lists:
                if values[j] == EXHAUSTED_SLOT:
                    exhausted = True
                    break
            if not exhausted:
                break
            skip[j] = j - 1
            j -= 1
        for visited in path:
            skip[visited] = j
        return j

    # -- planning -----------------------------------------------------------

    def probe_forward(
        self, size_bytes: float, start_slot: int, end_slot: int, to_ssd: bool,
        direction: Direction = Direction.OUT,
    ) -> int | None:
        """Earliest slot by which a transfer starting at ``start_slot`` completes.

        Returns the completion slot (inclusive), or ``None`` if the transfer
        cannot finish before ``end_slot`` (exclusive) with the remaining
        channel capacity. Does not reserve anything.
        """
        remaining = float(size_bytes)
        limit = min(end_slot, self.num_slots)
        if start_slot >= limit:
            return None
        if remaining <= 0:
            return start_slot
        key = (to_ssd, direction)
        lists = self._combos[key]
        slot = start_slot
        while slot < limit:
            slot = self._next_open_fwd(key, slot)
            if slot >= limit:
                return None
            available = lists[0][slot]
            for other in lists[1:]:
                value = other[slot]
                if value < available:
                    available = value
            remaining -= available
            if remaining <= 0:
                return slot
            slot += 1
        return None

    def probe_backward(
        self, size_bytes: float, end_slot: int, start_slot: int, to_ssd: bool,
        direction: Direction = Direction.IN,
    ) -> int | None:
        """Latest slot at which a transfer can start and still finish by ``end_slot``.

        Scans backwards from ``end_slot - 1`` down to ``start_slot`` (inclusive)
        consuming remaining capacity; returns the start slot or ``None`` if the
        window is too congested.
        """
        remaining = float(size_bytes)
        floor = max(start_slot, 0)
        slot = min(end_slot, self.num_slots) - 1
        if slot < floor:
            return None
        if remaining <= 0:
            return slot
        key = (to_ssd, direction)
        lists = self._combos[key]
        while slot >= floor:
            slot = self._next_open_bwd(key, slot)
            if slot < floor:
                return None
            available = lists[0][slot]
            for other in lists[1:]:
                value = other[slot]
                if value < available:
                    available = value
            remaining -= available
            if remaining <= 0:
                return slot
            slot -= 1
        return None

    def reserve(
        self,
        size_bytes: float,
        start_slot: int,
        to_ssd: bool,
        direction: Direction,
        end_slot: int | None = None,
    ) -> int:
        """Consume channel capacity for a transfer beginning at ``start_slot``.

        Returns the completion slot. A zero-size transfer completes in the
        first open slot without consuming anything. If ``end_slot`` is given
        and the transfer cannot complete before it, a :class:`SchedulingError`
        is raised (the caller should have probed first).
        """
        remaining = float(size_bytes)
        limit = self.num_slots if end_slot is None else min(end_slot, self.num_slots)
        key = (to_ssd, direction)
        lists = self._combos[key]
        slot = start_slot
        while slot < limit:
            slot = self._next_open_fwd(key, slot)
            if slot >= limit:
                break
            available = lists[0][slot]
            for other in lists[1:]:
                value = other[slot]
                if value < available:
                    available = value
            take = available if available < remaining else remaining
            if take > 0:
                for values in lists:
                    values[slot] -= take
                remaining -= take
            if remaining <= 1e-9:
                return slot
            slot += 1
        if end_slot is None and remaining > 1e-9:
            # Spill into the final slot: the transfer finishes late, after the
            # iteration's last kernel. Record it against the last slot.
            return self.num_slots - 1
        raise SchedulingError(
            "transfer could not be reserved in the requested window; probe first"
        )

    def transfer_time(self, size_bytes: float, to_ssd: bool, direction: Direction) -> float:
        """Unloaded latency of one transfer (used for the cost term of Algorithm 1)."""
        latency, bandwidth = self._unloaded[(to_ssd, direction)]
        return latency + size_bytes / bandwidth
