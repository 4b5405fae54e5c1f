"""Unified virtual address space shared by GPU, host and flash."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..config import PAGE_SIZE
from ..core.extents import Extent
from ..errors import AllocationError, TranslationError


@dataclass(frozen=True, slots=True)
class VirtualRange:
    """A contiguous virtual allocation backing one tensor."""

    start: int
    size_bytes: int
    page_size: int = PAGE_SIZE
    # Derived page arithmetic is read on every residency check and migration,
    # so it is computed once at construction (not compared, not in the repr).
    num_pages: int = field(init=False, repr=False, compare=False)
    end: int = field(init=False, repr=False, compare=False)
    first_page: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.start % self.page_size:
            raise AllocationError("virtual ranges must be page aligned")
        if self.size_bytes <= 0:
            raise AllocationError("virtual ranges must have positive size")
        num_pages = -(-self.size_bytes // self.page_size)
        object.__setattr__(self, "num_pages", num_pages)
        object.__setattr__(self, "end", self.start + num_pages * self.page_size)
        object.__setattr__(self, "first_page", self.start // self.page_size)

    def pages(self) -> range:
        """Virtual page numbers covered by the range."""
        return range(self.first_page, self.first_page + self.num_pages)

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    @property
    def extent(self) -> Extent:
        """The virtual page run backing this range."""
        return Extent(self.first_page, self.num_pages)


@dataclass
class UnifiedAddressSpace:
    """Allocates tensors into one flat, page-aligned virtual address space.

    Mirrors the paper's design where the compiler plans migrations purely in
    terms of virtual addresses and the unified memory system resolves physical
    placement at run time. Small tensors are packed into whole pages (the
    paper compacts sub-4 KB tensors; modelling them as one page keeps the same
    footprint bound).
    """

    page_size: int = PAGE_SIZE
    _ranges: dict[int, VirtualRange] = field(default_factory=dict)
    _next_start: int = 0
    #: Allocation-ordered (== address-ordered: the space is a bump allocator)
    #: extent index for O(log n) reverse lookup.
    _starts: list[int] = field(default_factory=list)
    _owners: list[int] = field(default_factory=list)

    def allocate(self, tensor_id: int, size_bytes: int) -> VirtualRange:
        """Assign a virtual range to a tensor (idempotent per tensor)."""
        existing = self._ranges.get(tensor_id)
        if existing is not None:
            return existing
        if size_bytes <= 0:
            raise AllocationError(f"tensor {tensor_id} has non-positive size")
        vrange = VirtualRange(self._next_start, size_bytes, self.page_size)
        self._ranges[tensor_id] = vrange
        self._next_start = vrange.end
        self._starts.append(vrange.start)
        self._owners.append(tensor_id)
        return vrange

    def range_of(self, tensor_id: int) -> VirtualRange:
        try:
            return self._ranges[tensor_id]
        except KeyError as exc:
            raise TranslationError(f"tensor {tensor_id} has no virtual mapping") from exc

    def tensor_at(self, vaddr: int) -> int:
        """Reverse lookup: which tensor owns a virtual address (binary search)."""
        index = bisect_right(self._starts, vaddr) - 1
        if index >= 0:
            tensor_id = self._owners[index]
            if self._ranges[tensor_id].contains(vaddr):
                return tensor_id
        raise TranslationError(f"virtual address {vaddr:#x} is unmapped")

    def extent_of(self, tensor_id: int) -> Extent:
        """The virtual page run assigned to a tensor."""
        return self.range_of(tensor_id).extent

    def extents(self) -> list[tuple[int, Extent]]:
        """Every (tensor_id, extent) pair in address order."""
        return [(tid, self._ranges[tid].extent) for tid in self._owners]

    def __contains__(self, tensor_id: int) -> bool:
        return tensor_id in self._ranges

    def __len__(self) -> int:
        return len(self._ranges)

    @property
    def total_mapped_bytes(self) -> int:
        return sum(r.num_pages * self.page_size for r in self._ranges.values())
