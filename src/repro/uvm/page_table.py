"""Unified page table whose leaf entries resolve to GPU, host, or flash."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from ..core.extents import Extent
from ..errors import TranslationError
from .address_space import UnifiedAddressSpace, VirtualRange


class MemoryLocation(Enum):
    """Physical backing of a page in the unified space."""

    GPU = "gpu"
    HOST = "host"
    FLASH = "flash"
    #: Alias: policies talk about "the SSD", the page table about flash pages.
    SSD = "flash"
    UNMAPPED = "unmapped"

    # Members are singletons compared by identity, so they hash by identity
    # too (Enum's default hashes the member name in Python code).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class PageTableEntry:
    """One leaf PTE: where a virtual page currently lives.

    The paper extends UVM's page table so a PTE can hold a flash page address
    in addition to host/GPU physical addresses, letting the SSD controller
    update mappings during garbage collection without host involvement.
    """

    virtual_page: int
    location: MemoryLocation
    physical_page: int

    @property
    def is_resident_on_gpu(self) -> bool:
        return self.location is MemoryLocation.GPU


@dataclass
class UnifiedPageTable:
    """Tracks the physical location of every tensor's pages.

    The table keeps one extent-level record per tensor — all of a tensor's
    pages are contiguous and move together under G10's tensor-granularity
    migration — while still exposing per-page translation for fault-path
    modelling. Per-location page totals are maintained incrementally, so
    residency accounting is O(1) rather than a scan over every tensor.
    """

    address_space: UnifiedAddressSpace
    _locations: dict[int, MemoryLocation] = field(default_factory=dict)
    _physical_base: dict[int, int] = field(default_factory=dict)
    _next_physical: dict[MemoryLocation, int] = field(default_factory=dict)
    #: Pages currently mapped per location (incrementally maintained).
    _location_pages: dict[MemoryLocation, int] = field(default_factory=dict)
    #: Counters of PTE updates, exercised by GC remapping and migrations.
    pte_updates: int = 0

    def register(self, tensor_id: int, size_bytes: int) -> VirtualRange:
        """Create the virtual mapping for a tensor; initially unmapped."""
        vrange = self.address_space.allocate(tensor_id, size_bytes)
        self._locations.setdefault(tensor_id, MemoryLocation.UNMAPPED)
        return vrange

    # -- queries ---------------------------------------------------------------

    def location_of(self, tensor_id: int) -> MemoryLocation:
        try:
            return self._locations[tensor_id]
        except KeyError as exc:
            raise TranslationError(f"tensor {tensor_id} is not registered") from exc

    def is_resident(self, tensor_id: int) -> bool:
        return self.location_of(tensor_id) is MemoryLocation.GPU

    def translate(self, vaddr: int) -> PageTableEntry:
        """Translate one virtual address to its leaf PTE."""
        tensor_id = self.address_space.tensor_at(vaddr)
        vrange = self.address_space.range_of(tensor_id)
        location = self._locations[tensor_id]
        if location is MemoryLocation.UNMAPPED:
            raise TranslationError(f"virtual address {vaddr:#x} is not backed by any memory")
        page_offset = (vaddr - vrange.start) // vrange.page_size
        base = self._physical_base.get(tensor_id, 0)
        return PageTableEntry(
            virtual_page=vrange.first_page + page_offset,
            location=location,
            physical_page=base + page_offset,
        )

    def resident_tensors(self, location: MemoryLocation) -> list[int]:
        """All tensors currently placed in one location."""
        return [tid for tid, loc in self._locations.items() if loc is location]

    def resident_pages(self, location: MemoryLocation) -> int:
        """Total pages currently mapped at one location (O(1))."""
        return self._location_pages.get(location, 0)

    def physical_extent(self, tensor_id: int) -> Extent:
        """The contiguous physical page run backing one mapped tensor."""
        location = self.location_of(tensor_id)
        if location is MemoryLocation.UNMAPPED:
            raise TranslationError(f"tensor {tensor_id} has no physical backing")
        vrange = self.address_space.range_of(tensor_id)
        return Extent(self._physical_base.get(tensor_id, 0), vrange.num_pages)

    # -- updates ---------------------------------------------------------------

    def place(self, tensor_id: int, location: MemoryLocation) -> int:
        """Move a tensor's pages to a new location, updating its PTEs.

        The move is one extent-level operation; the return value is the number
        of leaf PTEs the move covers (one per 4 KB page), which the simulator
        uses to charge page-table maintenance costs.
        """
        previous = self._locations.get(tensor_id)
        if previous is None:
            raise TranslationError(f"tensor {tensor_id} is not registered")
        vrange = self.address_space.range_of(tensor_id)
        if previous is not MemoryLocation.UNMAPPED:
            self._location_pages[previous] -= vrange.num_pages
        self._locations[tensor_id] = location
        base = self._next_physical.get(location, 0)
        self._physical_base[tensor_id] = base
        self._next_physical[location] = base + vrange.num_pages
        self._location_pages[location] = (
            self._location_pages.get(location, 0) + vrange.num_pages
        )
        self.pte_updates += vrange.num_pages
        return vrange.num_pages

    def place_batch(self, tensor_ids: Sequence[int], location: MemoryLocation) -> int:
        """Move several tensors to one location with one grouped PTE update.

        Used by the executor's batched fault path: all of a kernel's faulting
        tensors land on the GPU together. Tensors are placed in list order, so
        physical-base assignment matches the equivalent sequence of
        :meth:`place` calls; the PTE-maintenance counter is bumped once with
        the grouped total.
        """
        moved_pages = 0
        pages = self._location_pages
        next_base = self._next_physical.get(location, 0)
        for tensor_id in tensor_ids:
            previous = self._locations.get(tensor_id)
            if previous is None:
                raise TranslationError(f"tensor {tensor_id} is not registered")
            num_pages = self.address_space.range_of(tensor_id).num_pages
            if previous is not MemoryLocation.UNMAPPED:
                pages[previous] -= num_pages
            self._locations[tensor_id] = location
            self._physical_base[tensor_id] = next_base
            next_base += num_pages
            moved_pages += num_pages
        self._next_physical[location] = next_base
        pages[location] = pages.get(location, 0) + moved_pages
        self.pte_updates += moved_pages
        return moved_pages

    def unmap(self, tensor_id: int) -> None:
        """Drop the physical backing of a tensor (freed intermediate)."""
        previous = self._locations.get(tensor_id)
        if previous is None:
            raise TranslationError(f"tensor {tensor_id} is not registered")
        if previous is not MemoryLocation.UNMAPPED:
            self._location_pages[previous] -= self.address_space.range_of(tensor_id).num_pages
        self._locations[tensor_id] = MemoryLocation.UNMAPPED

    def remap_flash_pages(self, tensor_id: int, new_base: int) -> int:
        """SSD-controller-driven remap after garbage collection moved flash pages."""
        if self.location_of(tensor_id) is not MemoryLocation.FLASH:
            raise TranslationError("only flash-resident tensors can be GC-remapped")
        vrange = self.address_space.range_of(tensor_id)
        self._physical_base[tensor_id] = new_base
        self.pte_updates += vrange.num_pages
        return vrange.num_pages
