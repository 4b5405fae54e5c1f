"""Byte-accounted pool residency and page-table page totals.

Neither the memory pools nor the page table keep page runs, so their
acceptance bar is behavioural equivalence with per-page bookkeeping: random
alloc/free/migrate sequences must give exactly the same occupancy and
residency answers as a reference model that tracks one record per page, and
the page table's per-location totals must follow every placement.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uvm.memory import MemoryPool
from repro.uvm.page_table import MemoryLocation, UnifiedPageTable

PAGE = 4096


class _PerPageReference:
    """Reference model: one dict entry per page, byte-accounted admission."""

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.pages: dict[int, set[int]] = {}
        self.peak = 0

    def _rounded(self, size: int) -> int:
        return max(1, math.ceil(size / PAGE)) * PAGE

    @property
    def used_bytes(self) -> int:
        return sum(len(pages) for pages in self.pages.values()) * PAGE

    def can_fit(self, size: int) -> bool:
        return self._rounded(size) <= self.capacity - self.used_bytes

    def allocate(self, tensor_id: int, size: int) -> None:
        if tensor_id in self.pages:
            return
        self.pages[tensor_id] = set(range(self._rounded(size) // PAGE))
        self.peak = max(self.peak, self.used_bytes)

    def free(self, tensor_id: int) -> int:
        return len(self.pages.pop(tensor_id, ())) * PAGE

    def contains(self, tensor_id: int) -> bool:
        return tensor_id in self.pages

    def clear(self) -> None:
        self.pages.clear()


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "migrate", "clear"]),
            st.integers(0, 9),              # tensor id
            st.integers(1, 6 * PAGE),       # size bytes
        ),
        max_size=80,
    )
)
@settings(max_examples=60, deadline=None)
def test_pool_matches_per_page_reference_model(ops):
    """Random alloc/free/migrate/clear sequences: byte pool == per-page model."""
    gpu = MemoryPool("gpu", 16 * PAGE)
    host = MemoryPool("host", 16 * PAGE)
    ref_gpu = _PerPageReference(16 * PAGE)
    ref_host = _PerPageReference(16 * PAGE)
    sizes: dict[int, int] = {}

    for op, tid, size in ops:
        if op == "alloc":
            assert gpu.can_fit(size) == ref_gpu.can_fit(size)
            if not gpu.contains(tid) and gpu.can_fit(size):
                gpu.allocate(tid, size)
                ref_gpu.allocate(tid, size)
                sizes[tid] = size
        elif op == "free":
            assert gpu.free(tid) == ref_gpu.free(tid)
            assert host.free(tid) == ref_host.free(tid)
        elif op == "migrate" and gpu.contains(tid):
            moved = sizes[tid]
            if host.can_fit(moved):
                gpu.free(tid)
                ref_gpu.free(tid)
                host.allocate(tid, moved)
                ref_host.allocate(tid, moved)
        elif op == "clear":
            host.clear()
            ref_host.clear()

        for pool, ref in ((gpu, ref_gpu), (host, ref_host)):
            assert pool.used_bytes == ref.used_bytes
            assert pool.free_bytes == pool.capacity_bytes - ref.used_bytes
            assert pool.peak_used_bytes == ref.peak
            assert pool.can_fit(size) == ref.can_fit(size)
            assert sorted(pool.resident_tensors()) == sorted(ref.pages)
            assert pool.num_resident == len(ref.pages)
            for resident in ref.pages:
                assert pool.contains(resident)
                assert pool.resident_size(resident) == len(ref.pages[resident]) * PAGE


class TestUnifiedExtentViews:
    """Per-location page totals of the page table."""

    def test_page_table_location_page_totals(self):
        table = UnifiedPageTable()
        table.register(1, 3 * PAGE)
        table.register(2, 2 * PAGE)
        assert table.resident_pages(MemoryLocation.GPU) == 0
        table.place(1, MemoryLocation.GPU)
        table.place(2, MemoryLocation.GPU)
        assert table.resident_pages(MemoryLocation.GPU) == 5
        table.place(2, MemoryLocation.HOST)
        assert table.resident_pages(MemoryLocation.GPU) == 3
        assert table.resident_pages(MemoryLocation.HOST) == 2
        table.unmap(1)
        assert table.resident_pages(MemoryLocation.GPU) == 0
        assert table.location_of(1) is MemoryLocation.UNMAPPED
        assert table.place_batch([1, 2], MemoryLocation.FLASH) == 5
        assert table.resident_pages(MemoryLocation.HOST) == 0
        assert table.resident_pages(MemoryLocation.FLASH) == 5
        assert table.resident_tensors(MemoryLocation.FLASH) == [1, 2]
        assert table.pte_updates == 3 + 2 + 2 + 5
