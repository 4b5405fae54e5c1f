"""System configuration for the G10 reproduction.

The values in :func:`paper_config` mirror Table 2 of the paper (A100 GPU with
40 GB HBM2e, 128 GB host DRAM, a Samsung Z-NAND class SSD, PCIe Gen3 x16).
The CI-scale system is ``default_config(model, "ci")``
(:mod:`repro.experiments.harness`): it shrinks GPU and host capacity by the
model's ``ci_capacity_scale`` and keeps every bandwidth and latency of
Table 2.

Every float field and every capacity is range-checked at construction with
a chained comparison (``not 0 < x < math.inf``), which also rejects NaN and
infinities. A malformed value therefore raises
:class:`~repro.errors.ConfigurationError` wherever it enters: a constructor,
a ``with_*`` copy or :meth:`SystemConfig.from_dict`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigurationError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

#: Bytes per FP32 element, the tensor representation used throughout the paper.
FP32_BYTES = 4

#: Page size used by the unified memory system (Table 2).
PAGE_SIZE = 4 * KB


def whole_bytes(nbytes: float, what: str) -> int:
    """``nbytes`` as an int; NaN and infinities raise :class:`ConfigurationError`."""
    if not -math.inf < nbytes < math.inf:
        raise ConfigurationError(f"{what} must be a finite number of bytes, got {nbytes}")
    return int(nbytes)


@dataclass(frozen=True)
class GPUConfig:
    """Compute and on-board memory parameters of the simulated GPU."""

    #: On-board HBM capacity in bytes.
    memory_bytes: int = 40 * GB
    #: Peak FP32 throughput in FLOP/s (A100: 19.5 TFLOPS).
    peak_flops: float = 19.5e12
    #: HBM bandwidth in bytes/s (A100: ~1555 GB/s).
    memory_bandwidth: float = 1555 * GB
    # The four efficiency factors below calibrate the roofline cost model so
    # that kernel durations land in the same duration-vs-footprint regime as
    # the kernel traces the paper replays (see DESIGN.md, "Substitutions").
    # They are deliberately below what a tuned A100 achieves: the paper's
    # traces come from eager-mode FP32 PyTorch at very large batch sizes.
    #: Fraction of peak achieved by generic compute kernels.
    compute_efficiency: float = 0.20
    #: Fraction of peak achieved by FP32 convolution kernels.
    conv_efficiency: float = 0.035
    #: Fraction of peak achieved by grouped convolutions (ResNeXt/SENet style).
    grouped_conv_efficiency: float = 0.015
    #: Fraction of peak achieved by large GEMM / attention kernels.
    gemm_efficiency: float = 0.15
    #: Fixed per-kernel launch overhead in seconds.
    kernel_launch_overhead: float = 4e-6

    def __post_init__(self) -> None:
        if not 0 < self.memory_bytes < math.inf:
            raise ConfigurationError("GPU memory must be positive and finite")
        if not (0 < self.peak_flops < math.inf and 0 < self.memory_bandwidth < math.inf):
            raise ConfigurationError("GPU throughput parameters must be positive and finite")
        for name in ("compute_efficiency", "conv_efficiency", "grouped_conv_efficiency", "gemm_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ConfigurationError(f"{name} must be in (0, 1]")
        if not 0 <= self.kernel_launch_overhead < math.inf:
            raise ConfigurationError("kernel launch overhead must be non-negative and finite")

    def efficiency_for(self, compute_class: str) -> float:
        """Achieved fraction of peak FLOPs for one kernel compute class."""
        table = {
            "conv": self.conv_efficiency,
            "grouped_conv": self.grouped_conv_efficiency,
            "gemm": self.gemm_efficiency,
        }
        return table.get(compute_class, self.compute_efficiency)


@dataclass(frozen=True)
class SSDConfig:
    """Flash SSD parameters (Table 2, Samsung Z-NAND class device)."""

    #: Sequential read bandwidth in bytes/s.
    read_bandwidth: float = 3.2 * GB
    #: Sequential write bandwidth in bytes/s.
    write_bandwidth: float = 3.0 * GB
    #: Read latency in seconds.
    read_latency: float = 20e-6
    #: Write (program) latency in seconds.
    write_latency: float = 16e-6
    #: Device capacity in bytes.
    capacity_bytes: int = int(3.2 * TB)
    #: Rated endurance in drive-writes-per-day over the warranty period.
    endurance_dwpd: float = 30.0
    #: Warranty period in days (5 years).
    endurance_days: int = 1825

    def __post_init__(self) -> None:
        if not (0 < self.read_bandwidth < math.inf and 0 < self.write_bandwidth < math.inf):
            raise ConfigurationError("SSD bandwidth must be positive and finite")
        if not (0 <= self.read_latency < math.inf and 0 <= self.write_latency < math.inf):
            raise ConfigurationError("SSD latencies must be non-negative and finite")
        if not 0 < self.capacity_bytes < math.inf:
            raise ConfigurationError("SSD capacity must be positive and finite")
        if not 0 < self.endurance_dwpd < math.inf:
            raise ConfigurationError("endurance_dwpd must be positive and finite")


@dataclass(frozen=True)
class InterconnectConfig:
    """PCIe interconnect shared by GPU<->host and GPU<->SSD traffic."""

    #: Usable unidirectional bandwidth in bytes/s (PCIe Gen3 x16 ~ 15.754 GB/s).
    bandwidth: float = 15.754 * GB
    #: Per-transfer setup latency in seconds.
    latency: float = 5e-6

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth < math.inf:
            raise ConfigurationError("interconnect bandwidth must be positive and finite")
        if not 0 <= self.latency < math.inf:
            raise ConfigurationError("interconnect latency must be non-negative and finite")


@dataclass(frozen=True)
class UVMConfig:
    """Unified-virtual-memory behaviour knobs."""

    #: Page size for the unified page table.
    page_size: int = PAGE_SIZE
    #: End-to-end GPU page-fault handling latency in seconds (Table 2).
    fault_latency: float = 45e-6
    #: Bytes migrated per fault-handling round trip (fault-neighbourhood prefetch).
    fault_batch_bytes: int = 2 * MB
    #: Software overhead per explicit (pre-evict / prefetch) migration request
    #: when the flash space is NOT integrated into the page table (G10-Host).
    software_migration_overhead: float = 15e-6
    #: Software overhead per explicit migration with the full UVM extension (G10).
    extended_uvm_overhead: float = 2e-6

    def __post_init__(self) -> None:
        if not (0 < self.page_size < math.inf and 0 < self.fault_batch_bytes < math.inf):
            raise ConfigurationError("page size and fault batch must be positive and finite")
        if not (
            0 <= self.fault_latency < math.inf
            and 0 <= self.software_migration_overhead < math.inf
            and 0 <= self.extended_uvm_overhead < math.inf
        ):
            raise ConfigurationError("UVM latencies and overheads must be non-negative and finite")


def _field_dict(config: GPUConfig | SSDConfig | InterconnectConfig | UVMConfig) -> dict:
    """A sub-config's fields by name, in declaration order."""
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of the simulated GPU + host + SSD system."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    ssd: SSDConfig = field(default_factory=SSDConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    uvm: UVMConfig = field(default_factory=UVMConfig)
    #: Host DRAM capacity in bytes available for tensor staging.
    host_memory_bytes: int = 128 * GB
    #: Effective GPU<->host migration bandwidth in bytes/s (bounded by PCIe).
    host_bandwidth: float = 15.754 * GB

    def __post_init__(self) -> None:
        if not 0 <= self.host_memory_bytes < math.inf:
            raise ConfigurationError("host memory must be non-negative and finite")
        if not 0 < self.host_bandwidth < math.inf:
            raise ConfigurationError("host bandwidth must be positive and finite")

    # -- convenience ----------------------------------------------------

    @property
    def gpu_pages(self) -> int:
        """Number of UVM pages that fit in GPU memory."""
        return self.gpu.memory_bytes // self.uvm.page_size

    @property
    def host_pages(self) -> int:
        """Number of UVM pages that fit in host memory."""
        return self.host_memory_bytes // self.uvm.page_size

    def with_host_memory(self, nbytes: int) -> "SystemConfig":
        """Return a copy with a different host memory capacity (Figures 16/17)."""
        return dataclasses.replace(self, host_memory_bytes=nbytes)

    def with_ssd_bandwidth(self, read_bw: float, write_bw: float | None = None) -> "SystemConfig":
        """Return a copy with a different SSD bandwidth (Figure 18)."""
        if write_bw is None:
            write_bw = read_bw * (self.ssd.write_bandwidth / self.ssd.read_bandwidth)
        ssd = dataclasses.replace(self.ssd, read_bandwidth=read_bw, write_bandwidth=write_bw)
        return dataclasses.replace(self, ssd=ssd)

    def with_interconnect_bandwidth(self, bandwidth: float) -> "SystemConfig":
        """Return a copy with a different PCIe bandwidth (PCIe 4.0 for Figure 18)."""
        ic = dataclasses.replace(self.interconnect, bandwidth=bandwidth)
        return dataclasses.replace(self, interconnect=ic, host_bandwidth=bandwidth)

    def with_gpu_memory(self, nbytes: int) -> "SystemConfig":
        """Return a copy with a different GPU memory capacity."""
        gpu = dataclasses.replace(self.gpu, memory_bytes=nbytes)
        return dataclasses.replace(self, gpu=gpu)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """All configuration fields as a plain (JSON-safe) nested dictionary.

        Equal to ``dataclasses.asdict(self)``, keys and their order included,
        without its deep copy: every leaf is an immutable scalar.
        """
        return {
            "gpu": _field_dict(self.gpu),
            "ssd": _field_dict(self.ssd),
            "interconnect": _field_dict(self.interconnect),
            "uvm": _field_dict(self.uvm),
            "host_memory_bytes": self.host_memory_bytes,
            "host_bandwidth": self.host_bandwidth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            gpu=GPUConfig(**data["gpu"]),
            ssd=SSDConfig(**data["ssd"]),
            interconnect=InterconnectConfig(**data["interconnect"]),
            uvm=UVMConfig(**data["uvm"]),
            host_memory_bytes=data["host_memory_bytes"],
            host_bandwidth=data["host_bandwidth"],
        )

    def fingerprint(self) -> str:
        """Stable content hash over every configuration field.

        Two configs with equal field values share a fingerprint regardless of
        object identity; any field change produces a different one. Used as
        the memoization/cache key component wherever results depend on the
        simulated system.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def paper_config() -> SystemConfig:
    """The configuration used throughout the paper's evaluation (Table 2)."""
    return SystemConfig()
