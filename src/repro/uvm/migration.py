"""Runtime migration engine: timed transfers over PCIe and the SSD.

This is the runtime half of Figure 10. The executor submits migration
requests (pre-evictions, prefetches, demand faults) one at a time; the engine
resolves each into a timed transfer over the shared PCIe link and, for
flash-bound traffic, the SSD's internal read/write path. Each channel serves
its requests in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..config import SystemConfig
from ..errors import SimulationError
from ..ssd.ssd import SSDDevice
from .page_table import MemoryLocation


class MigrationKind(Enum):
    """Why a transfer is happening; counted separately in the traffic totals."""

    FAULT = "fault"
    PREFETCH = "prefetch"
    EVICTION = "eviction"

    # Members are singletons compared by identity, so they hash by identity
    # too (Enum's default hashes the member name in Python code).
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
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
        return self.source is MemoryLocation.FLASH or self.destination is MemoryLocation.FLASH

    @property
    def direction_in(self) -> bool:
        """True when data flows toward the GPU."""
        return self.destination is MemoryLocation.GPU


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
        pcie = config.interconnect
        #: Fixed cost of every transfer: software overhead plus link latency.
        self._setup_time = per_request_overhead + pcie.latency
        self._pcie_bandwidth = pcie.bandwidth
        #: Host transfers run at the slower of the PCIe link and host DRAM.
        self._host_bandwidth = min(pcie.bandwidth, config.host_bandwidth)
        self._free_at = {
            "pcie_in": 0.0,
            "pcie_out": 0.0,
            "ssd_read": 0.0,
            "ssd_write": 0.0,
        }
        self.traffic = TrafficCounters()

    # -- properties -----------------------------------------------------------

    @property
    def ssd(self) -> SSDDevice:
        return self._ssd

    @property
    def config(self) -> SystemConfig:
        return self._config

    def channel_free_at(self, channel: str) -> float:
        return self._free_at[channel]

    # -- submission ---------------------------------------------------------------

    def submit(self, request: MigrationRequest, now: float) -> float:
        """Schedule one migration; returns its completion time."""
        inbound = request.direction_in
        flash = request.involves_flash
        channels = _channels(inbound, flash)
        start = self._start_time(channels, now)
        duration = self._service_time(request, inbound, flash)
        completion = start + duration
        free_at = self._free_at
        for channel in channels:
            free_at[channel] = completion
        self._account(request, inbound, flash)
        return completion

    def earliest_start(self, request: MigrationRequest, now: float) -> float:
        """When a request would begin service if submitted now (no side effects)."""
        return self._start_time(_channels(request.direction_in, request.involves_flash), now)

    # -- internals -----------------------------------------------------------------

    def _start_time(self, channels: tuple[str, ...], now: float) -> float:
        """The later of ``now`` and the time every channel is free."""
        start = now
        for channel in channels:
            free_at = self._free_at[channel]
            if free_at > start:
                start = free_at
        return start

    def _service_time(self, request: MigrationRequest, inbound: bool, flash: bool) -> float:
        time = self._setup_time
        if flash:
            # Flash transfers are pipelined page-by-page through the PCIe link,
            # so the end-to-end time is governed by the slower of the two legs.
            pcie_leg = request.size_bytes / self._pcie_bandwidth
            if inbound:
                ssd_leg = self._ssd.read_object(request.tensor_id, request.size_bytes)
            else:
                ssd_leg = self._ssd.write_object(request.tensor_id, request.size_bytes)
            time += max(ssd_leg, pcie_leg)
        else:
            time += request.size_bytes / self._host_bandwidth
        return time

    def preload_flash(self, tensor_id: int, size_bytes: int) -> None:
        """Place a tensor on flash at time zero without charging traffic or time.

        Used to set up the initial residency of global tensors whose backing
        store is the SSD (e.g. checkpointed weights before the first iteration).
        """
        self._ssd.preload_object(tensor_id, size_bytes)

    def _account(self, request: MigrationRequest, inbound: bool, flash: bool) -> None:
        traffic = self.traffic
        if flash:
            traffic.gpu_ssd_bytes += request.size_bytes
            if inbound:
                traffic.ssd_read_bytes += request.size_bytes
            else:
                traffic.ssd_write_bytes += request.size_bytes
        else:
            traffic.gpu_host_bytes += request.size_bytes
            if inbound:
                traffic.host_read_bytes += request.size_bytes
            else:
                traffic.host_write_bytes += request.size_bytes
        if request.kind is MigrationKind.FAULT:
            traffic.fault_count += 1
        elif request.kind is MigrationKind.PREFETCH:
            traffic.prefetch_count += 1
        else:
            traffic.eviction_count += 1


def _channels(inbound: bool, flash: bool) -> tuple[str, ...]:
    """The channels a transfer occupies, by direction and flash involvement."""
    if inbound:
        return ("pcie_in", "ssd_read") if flash else ("pcie_in",)
    return ("pcie_out", "ssd_write") if flash else ("pcie_out",)
