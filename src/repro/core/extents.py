"""Extent (contiguous page-run) records shared by the memory substrates.

Tensor allocations in the unified memory system are contiguous — the address
space hands out one page-aligned virtual range per tensor, and whole tensors
migrate together. The address space and the unified page table therefore
describe a tensor's pages as one *extent* (a ``(start_page, num_pages)`` run)
instead of one record per page; the run lengths are what the page table
charges as PTE updates. Per-page loops only exist where the model genuinely
needs page granularity (fault batching, PTE-update charging — both computed
arithmetically from the run length).

The memory pools are byte-accounted and keep no extents: no result reads
where a pool places a tensor's pages.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import AllocationError


class Extent(NamedTuple):
    """A contiguous run of pages: ``[start_page, start_page + num_pages)``.

    A named tuple rather than a dataclass: cheap to build, immutable, and
    ordered by start page. Use :meth:`checked` where inputs are untrusted;
    internal call sites construct directly from already-validated
    arithmetic.
    """

    start_page: int
    num_pages: int

    @classmethod
    def checked(cls, start_page: int, num_pages: int) -> "Extent":
        """Validating constructor for untrusted inputs."""
        if start_page < 0:
            raise AllocationError("extents cannot start at a negative page")
        if num_pages <= 0:
            raise AllocationError("extents must span at least one page")
        return cls(start_page, num_pages)

    @property
    def end_page(self) -> int:
        """One past the last page of the run."""
        return self.start_page + self.num_pages

    def contains_page(self, page: int) -> bool:
        return self.start_page <= page < self.end_page

    def overlaps(self, other: "Extent") -> bool:
        return self.start_page < other.end_page and other.start_page < self.end_page

    def adjacent_to(self, other: "Extent") -> bool:
        """True when the two runs touch without overlapping."""
        return self.end_page == other.start_page or other.end_page == self.start_page

    def pages(self) -> range:
        """The page numbers covered by the run (for reference-model tests)."""
        return range(self.start_page, self.end_page)
