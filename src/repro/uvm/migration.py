"""Runtime migration engine: metadata queues, arbiter and transfer batching.

This is the runtime half of Figure 10. The executor enqueues migration
requests (pre-evictions, prefetches, demand faults); the engine resolves each
into a timed transfer over the shared PCIe link and, for flash-bound traffic,
the SSD's internal read/write path, honouring priorities (faults first, then
prefetches, then pre-evictions) within each batch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from ..config import SystemConfig
from ..errors import SimulationError
from ..ssd.ssd import SSDDevice
from .page_table import MemoryLocation


class MigrationKind(Enum):
    """Why a transfer is happening; determines its arbiter priority."""

    FAULT = "fault"
    PREFETCH = "prefetch"
    EVICTION = "eviction"

    @property
    def priority(self) -> int:
        order = {MigrationKind.FAULT: 0, MigrationKind.PREFETCH: 1, MigrationKind.EVICTION: 2}
        return order[self]


@dataclass(frozen=True)
class MigrationRequest:
    """One tensor-granularity migration between two levels of the hierarchy."""

    tensor_id: int
    size_bytes: int
    source: MemoryLocation
    destination: MemoryLocation
    kind: MigrationKind

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise SimulationError("migration size must be positive")
        if self.source == self.destination:
            raise SimulationError("migration source and destination must differ")

    @property
    def involves_flash(self) -> bool:
        return MemoryLocation.FLASH in (self.source, self.destination)

    @property
    def direction_in(self) -> bool:
        """True when data flows toward the GPU."""
        return self.destination is MemoryLocation.GPU


@dataclass
class TransferSet:
    """A batch of migrations admitted together by the migration arbiter."""

    requests: list[MigrationRequest] = field(default_factory=list)

    def ordered(self) -> list[MigrationRequest]:
        """Requests in arbiter priority order (faults, prefetches, evictions)."""
        return sorted(
            self.requests, key=lambda r: (r.kind.priority, -r.size_bytes)
        )

    @property
    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.requests)


@dataclass
class TrafficCounters:
    """Cumulative migration traffic, split the way Figure 14 reports it."""

    gpu_ssd_bytes: float = 0.0
    gpu_host_bytes: float = 0.0
    ssd_read_bytes: float = 0.0
    ssd_write_bytes: float = 0.0
    host_read_bytes: float = 0.0
    host_write_bytes: float = 0.0
    fault_count: int = 0
    prefetch_count: int = 0
    eviction_count: int = 0

    @property
    def total_bytes(self) -> float:
        return self.gpu_ssd_bytes + self.gpu_host_bytes


class MigrationEngine:
    """Times tensor migrations over the PCIe link, host DRAM and the SSD.

    Channel model: the GPU's PCIe link has one queue per direction; traffic to
    or from flash additionally occupies the SSD's internal read/write path.
    Each channel serves one transfer at a time at full bandwidth (transfers of
    DNN tensors are large and sequential, so FIFO service is a close model of
    the DMA/DSA engines' behaviour). A transfer's completion time is the
    latest completion over the channels it crosses.
    """

    def __init__(
        self,
        config: SystemConfig,
        ssd: SSDDevice | None = None,
        per_request_overhead: float = 0.0,
    ):
        self._config = config
        self._ssd = ssd if ssd is not None else SSDDevice(config.ssd)
        self._overhead = per_request_overhead
        self._free_at = {
            "pcie_in": 0.0,
            "pcie_out": 0.0,
            "ssd_read": 0.0,
            "ssd_write": 0.0,
        }
        self._busy_time = dict.fromkeys(self._free_at, 0.0)
        self.traffic = TrafficCounters()
        self._sequence = itertools.count()

    # -- properties -----------------------------------------------------------

    @property
    def ssd(self) -> SSDDevice:
        return self._ssd

    @property
    def config(self) -> SystemConfig:
        return self._config

    def channel_busy_time(self, channel: str) -> float:
        return self._busy_time[channel]

    def channel_free_at(self, channel: str) -> float:
        return self._free_at[channel]

    # -- submission ---------------------------------------------------------------

    def submit(self, request: MigrationRequest, now: float) -> float:
        """Schedule one migration; returns its completion time."""
        channels = self._channels_for(request)
        start = self._start_time(channels, now)
        duration = self._service_time(request)
        completion = start + duration
        for channel in channels:
            self._busy_time[channel] += duration
            self._free_at[channel] = completion
        self._account(request)
        return completion

    def submit_batch(self, batch: TransferSet, now: float) -> dict[int, float]:
        """Schedule a transfer set; returns completion time per tensor id."""
        completions: dict[int, float] = {}
        for request in batch.ordered():
            completions[request.tensor_id] = self.submit(request, now)
        return completions

    def earliest_start(self, request: MigrationRequest, now: float) -> float:
        """When a request would begin service if submitted now (no side effects)."""
        return self._start_time(self._channels_for(request), now)

    # -- internals -----------------------------------------------------------------

    def _channels_for(self, request: MigrationRequest) -> tuple[str, ...]:
        if request.direction_in:
            return ("pcie_in", "ssd_read") if request.involves_flash else ("pcie_in",)
        return ("pcie_out", "ssd_write") if request.involves_flash else ("pcie_out",)

    def _start_time(self, channels: tuple[str, ...], now: float) -> float:
        """The later of ``now`` and the time every channel is free."""
        start = now
        for channel in channels:
            free_at = self._free_at[channel]
            if free_at > start:
                start = free_at
        return start

    def _service_time(self, request: MigrationRequest) -> float:
        pcie = self._config.interconnect
        time = self._overhead + pcie.latency
        pcie_leg = request.size_bytes / pcie.bandwidth
        if request.involves_flash:
            # Flash transfers are pipelined page-by-page through the PCIe link,
            # so the end-to-end time is governed by the slower of the two legs.
            if request.direction_in:
                ssd_leg = self._ssd.read_object(request.tensor_id, request.size_bytes)
            else:
                ssd_leg = self._ssd.write_object(request.tensor_id, request.size_bytes)
            time += max(ssd_leg, pcie_leg)
        else:
            bandwidth = min(pcie.bandwidth, self._config.host_bandwidth)
            time += request.size_bytes / bandwidth
        return time

    def preload_flash(self, tensor_id: int, size_bytes: int) -> None:
        """Place a tensor on flash at time zero without charging traffic or time.

        Used to set up the initial residency of global tensors whose backing
        store is the SSD (e.g. checkpointed weights before the first iteration).
        """
        self._ssd.preload_object(tensor_id, size_bytes)

    def _account(self, request: MigrationRequest) -> None:
        traffic = self.traffic
        if request.involves_flash:
            traffic.gpu_ssd_bytes += request.size_bytes
            if request.direction_in:
                traffic.ssd_read_bytes += request.size_bytes
            else:
                traffic.ssd_write_bytes += request.size_bytes
        else:
            traffic.gpu_host_bytes += request.size_bytes
            if request.direction_in:
                traffic.host_read_bytes += request.size_bytes
            else:
                traffic.host_write_bytes += request.size_bytes
        if request.kind is MigrationKind.FAULT:
            traffic.fault_count += 1
        elif request.kind is MigrationKind.PREFETCH:
            traffic.prefetch_count += 1
        else:
            traffic.eviction_count += 1
