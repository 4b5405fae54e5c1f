"""Extent algebra, byte-accounted pool residency, and unified extent views.

The memory pools keep no extents, so their acceptance bar is behavioural
equivalence with per-page bookkeeping: random alloc/free/migrate sequences
must give exactly the same occupancy and residency answers as a reference
model that tracks one record per page. The address space and page table do
keep extents; their views must stay address-ordered and disjoint.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extents import Extent
from repro.errors import AllocationError
from repro.uvm.memory import MemoryPool

PAGE = 4096


class TestExtent:
    def test_checked_rejects_bad_runs(self):
        with pytest.raises(AllocationError):
            Extent.checked(-1, 4)
        with pytest.raises(AllocationError):
            Extent.checked(0, 0)

    def test_interval_algebra(self):
        a, b, c = Extent(0, 4), Extent(4, 2), Extent(8, 2)
        assert a.end_page == 4
        assert a.adjacent_to(b) and b.adjacent_to(a)
        assert not a.adjacent_to(c)
        assert not a.overlaps(b)
        assert Extent(2, 4).overlaps(a)
        assert a.contains_page(3) and not a.contains_page(4)
        assert list(b.pages()) == [4, 5]


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
    """Extent views of the address space and page table."""

    def test_address_space_extents_are_address_ordered_and_disjoint(self):
        from repro.uvm.address_space import UnifiedAddressSpace

        space = UnifiedAddressSpace()
        space.allocate(1, 3 * PAGE)
        space.allocate(2, PAGE // 2)
        assert space.extent_of(1) == Extent(0, 3)
        assert space.extent_of(2) == Extent(3, 1)
        pairs = space.extents()
        assert [tid for tid, _ in pairs] == [1, 2]
        for (_, first), (_, second) in zip(pairs, pairs[1:]):
            assert first.end_page <= second.start_page

    def test_page_table_location_page_totals(self):
        from repro.uvm.address_space import UnifiedAddressSpace
        from repro.uvm.page_table import MemoryLocation, UnifiedPageTable

        table = UnifiedPageTable(UnifiedAddressSpace())
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
        # physical_extent reflects the placed run; unmapped tensors have none.
        assert table.physical_extent(2).num_pages == 2
        from repro.errors import TranslationError

        with pytest.raises(TranslationError):
            table.physical_extent(1)
