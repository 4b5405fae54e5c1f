"""Byte-accounted memory pools for GPU and host memory.

A pool records which tensors are resident and how many page-rounded bytes
each occupies. No result reads *where* a pool places a tensor's pages, so the
pool keeps no physical layout, and neither does the page table, which keeps
each tensor's location and page count only. Occupancy counters are
maintained incrementally, so ``used_bytes``/``free_bytes``/``can_fit`` — the
simulator's innermost admission checks — are O(1) instead of a sum over every
resident tensor.
"""

from __future__ import annotations

from ..config import PAGE_SIZE
from ..errors import AllocationError


class MemoryPool:
    """A capacity-limited memory pool tracking per-tensor residency.

    Allocation is accounted at page granularity (a tensor occupies whole
    pages), which is how the unified memory system manages every tensor.
    Admission is purely byte-based: a request fits whenever its page-rounded
    size is at most the free bytes.
    """

    def __init__(self, name: str, capacity_bytes: int, page_size: int = PAGE_SIZE):
        if capacity_bytes < 0:
            raise AllocationError(f"pool {name!r} cannot have negative capacity")
        if page_size <= 0:
            raise AllocationError("page size must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self._resident: dict[int, int] = {}
        self._used_bytes = 0
        #: High-water mark of occupancy, for reporting.
        self.peak_used_bytes = 0

    # -- accounting -------------------------------------------------------

    def _page_bytes(self, size_bytes: int) -> int:
        # Integer ceiling division: equal to ``math.ceil(size_bytes /
        # page_size)`` for every size below 2**53, without a float.
        return max(1, -(-size_bytes // self.page_size)) * self.page_size

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used_bytes

    @property
    def num_resident(self) -> int:
        return len(self._resident)

    def contains(self, tensor_id: int) -> bool:
        return tensor_id in self._resident

    def resident_tensors(self) -> list[int]:
        """Resident tensor ids in allocation order."""
        return list(self._resident)

    def resident_size(self, tensor_id: int) -> int:
        return self._resident.get(tensor_id, 0)

    def can_fit(self, size_bytes: int) -> bool:
        return self._page_bytes(size_bytes) <= self.capacity_bytes - self._used_bytes

    # -- mutation -----------------------------------------------------------

    def allocate(self, tensor_id: int, size_bytes: int) -> None:
        """Reserve space for a tensor; raises when the pool is full."""
        if tensor_id in self._resident:
            return
        rounded = self._page_bytes(size_bytes)
        if rounded > self.capacity_bytes - self._used_bytes:
            raise AllocationError(
                f"pool {self.name!r} cannot fit tensor {tensor_id}: "
                f"need {rounded} bytes, only {self.free_bytes} free"
            )
        self._resident[tensor_id] = rounded
        self._used_bytes += rounded
        if self._used_bytes > self.peak_used_bytes:
            self.peak_used_bytes = self._used_bytes

    def free(self, tensor_id: int) -> int:
        """Release a tensor's space; returns the bytes freed (0 if absent)."""
        freed = self._resident.pop(tensor_id, 0)
        self._used_bytes -= freed
        return freed

    def clear(self) -> None:
        self._resident.clear()
        self._used_bytes = 0
