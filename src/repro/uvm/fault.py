"""GPU page-fault path cost model."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import UVMConfig
from ..errors import ConfigurationError


@dataclass(frozen=True)
class PageFaultModel:
    """Latency model of the UVM demand-paging path.

    Faulting a tensor in via on-demand paging costs one fault round trip per
    *fault batch* (real UVM drivers service a faulting warp by migrating a
    neighbourhood of pages, not a single 4 KB page), plus the transfer, which
    the migration engine times. The 45 µs round trip comes straight from
    Table 2.
    """

    config: UVMConfig

    def __post_init__(self) -> None:
        if self.config.fault_batch_bytes <= 0:
            raise ConfigurationError("fault batch size must be positive")

    def fault_batches(self, size_bytes: int) -> int:
        """How many fault round trips a tensor of the given size needs."""
        if size_bytes <= 0:
            return 0
        return max(1, math.ceil(size_bytes / self.config.fault_batch_bytes))

    def fault_overhead(self, size_bytes: int) -> float:
        """Total fault-handling latency (excluding the data transfer itself)."""
        return self.fault_batches(size_bytes) * self.config.fault_latency
