"""Base UVM: on-demand page migration with LRU eviction (the paper's Base UVM)."""

from __future__ import annotations

from typing import Iterable

from ..graph.kernel import Kernel
from ..registry import register_policy
from ..sim.policy import MigrationDecision, MigrationPolicy
from ..uvm.page_table import MemoryLocation


@register_policy(
    "base_uvm",
    aliases=("uvm",),
    display="Base UVM",
    description="Stock UVM demand paging with LRU eviction (no planning).",
)
class BaseUVMPolicy(MigrationPolicy):
    """The stock GPU-CPU-SSD UVM system.

    Nothing is planned: tensors are faulted into GPU memory when a kernel
    touches them, and when the GPU is full the least-recently-used tensors are
    evicted — to host memory while it has room, to the SSD otherwise. Every
    fault pays the 45 µs handling round trip per fault batch, which is what
    makes this design ~4-5x slower than ideal in the paper.
    """

    name = "Base UVM"

    def prefetches_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        return []

    def evictions_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        return []

    def select_victims(
        self, needed_bytes: int, protected: set[int], resident: Iterable[int], now: float
    ) -> list[MigrationDecision]:
        decisions: list[MigrationDecision] = []
        freed = 0
        host_free = self.context.config.host_memory_bytes
        for tensor_id in resident:
            if freed >= needed_bytes:
                break
            size = self.context.tensor_size(tensor_id)
            destination = MemoryLocation.HOST if size <= host_free else MemoryLocation.SSD
            if destination is MemoryLocation.HOST:
                host_free -= size
            decisions.append(MigrationDecision(tensor_id, destination))
            freed += size
        return decisions
