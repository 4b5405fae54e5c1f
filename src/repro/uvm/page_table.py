"""Unified page table whose entries resolve each tensor to GPU, host, or flash.

G10 extends UVM's page table so that a tensor's pages can live in GPU memory,
host memory or flash (§4.5, §4.6). Whole tensors migrate together, so the
table keeps one record per tensor: where its pages live and how many there
are. Those two are all that any result reads. ``pte_updates`` charges one
leaf-PTE update per page moved, and the per-location page totals are kept
incrementally, so residency accounting is O(1) rather than a scan over every
tensor.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from ..config import PAGE_SIZE
from ..errors import AllocationError, TranslationError


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


class UnifiedPageTable:
    """Tracks the location and page count of every registered tensor."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self._locations: dict[int, MemoryLocation] = {}
        #: Pages per tensor, ``ceil(size_bytes / page_size)``, fixed at registration.
        self._pages: dict[int, int] = {}
        #: Pages currently mapped per location (incrementally maintained).
        self._location_pages: dict[MemoryLocation, int] = {}
        #: Leaf-PTE updates: one per page of every placement.
        self.pte_updates = 0

    def register(self, tensor_id: int, size_bytes: int) -> int:
        """Enter a tensor, initially unmapped; returns its page count.

        Registering a tensor again changes nothing and returns the page count
        of its first registration.
        """
        num_pages = self._pages.get(tensor_id)
        if num_pages is None:
            if size_bytes <= 0:
                raise AllocationError(f"tensor {tensor_id} has non-positive size")
            num_pages = self._pages[tensor_id] = -(-size_bytes // self.page_size)
            self._locations[tensor_id] = MemoryLocation.UNMAPPED
        return num_pages

    # -- queries ---------------------------------------------------------------

    def __contains__(self, tensor_id: int) -> bool:
        return tensor_id in self._pages

    def location_of(self, tensor_id: int) -> MemoryLocation:
        try:
            return self._locations[tensor_id]
        except KeyError as exc:
            raise TranslationError(f"tensor {tensor_id} is not registered") from exc

    def resident_tensors(self, location: MemoryLocation) -> list[int]:
        """All tensors currently placed in one location."""
        return [tid for tid, loc in self._locations.items() if loc is location]

    def resident_pages(self, location: MemoryLocation) -> int:
        """Total pages currently mapped at one location (O(1))."""
        return self._location_pages.get(location, 0)

    # -- updates ---------------------------------------------------------------

    def place(self, tensor_id: int, location: MemoryLocation) -> int:
        """Move a tensor's pages to a new location, updating its PTEs.

        Returns the number of leaf PTEs the move covers (one per page), which
        the simulator charges as page-table maintenance. :meth:`unmap` is the
        one way to unmap a tensor.
        """
        previous = self._locations.get(tensor_id)
        if previous is None:
            raise TranslationError(f"tensor {tensor_id} is not registered")
        if location is MemoryLocation.UNMAPPED:
            raise TranslationError("place() cannot unmap a tensor; use unmap()")
        num_pages = self._pages[tensor_id]
        if previous is not MemoryLocation.UNMAPPED:
            self._location_pages[previous] -= num_pages
        self._locations[tensor_id] = location
        self._location_pages[location] = self._location_pages.get(location, 0) + num_pages
        self.pte_updates += num_pages
        return num_pages

    def place_batch(self, tensor_ids: Sequence[int], location: MemoryLocation) -> int:
        """Move several tensors to one location with one grouped PTE update.

        Used by the executor's batched fault path: all of a kernel's faulting
        tensors land on the GPU together. The result equals the sequence of
        :meth:`place` calls, a repeated id included; the returned page total
        is charged once. An unregistered id, or ``UNMAPPED`` as the target,
        raises before any tensor moves.
        """
        if location is MemoryLocation.UNMAPPED:
            raise TranslationError("place_batch() cannot unmap tensors; use unmap()")
        locations = self._locations
        for tensor_id in tensor_ids:
            if tensor_id not in locations:
                raise TranslationError(f"tensor {tensor_id} is not registered")
        moved_pages = 0
        pages = self._location_pages
        # A repeated id subtracts its pages from ``location`` on its second
        # move, before the batch total is added back below.
        pages.setdefault(location, 0)
        for tensor_id in tensor_ids:
            previous = locations[tensor_id]
            num_pages = self._pages[tensor_id]
            if previous is not MemoryLocation.UNMAPPED:
                pages[previous] -= num_pages
            locations[tensor_id] = location
            moved_pages += num_pages
        pages[location] += moved_pages
        self.pte_updates += moved_pages
        return moved_pages

    def unmap(self, tensor_id: int) -> None:
        """Drop the physical backing of a tensor (freed intermediate)."""
        previous = self._locations.get(tensor_id)
        if previous is None:
            raise TranslationError(f"tensor {tensor_id} is not registered")
        if previous is not MemoryLocation.UNMAPPED:
            self._location_pages[previous] -= self._pages[tensor_id]
        self._locations[tensor_id] = MemoryLocation.UNMAPPED
