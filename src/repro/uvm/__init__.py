"""Unified GPU memory and storage substrate (§4.5, §4.6 of the paper).

This package models the memory-system half of G10:

* :class:`UnifiedPageTable` — each tensor's pages resolve to GPU memory,
  host memory, or flash (the paper's UVM extension); it keeps each tensor's
  location and page count, the per-location page totals and the PTE-update
  count;
* :class:`MemoryPool` — byte/page accounted GPU and host memory pools;
* :class:`PageFaultModel` — the cost of the GPU fault path (Table 2's 45 µs);
* :class:`MigrationEngine` — the timed transfers of Figure 10's runtime half,
  one request at a time over the PCIe and SSD channels.
"""

from .page_table import MemoryLocation, UnifiedPageTable
from .memory import MemoryPool
from .fault import PageFaultModel
from .migration import MigrationEngine, MigrationRequest, MigrationKind

__all__ = [
    "MemoryLocation",
    "UnifiedPageTable",
    "MemoryPool",
    "PageFaultModel",
    "MigrationEngine",
    "MigrationRequest",
    "MigrationKind",
]
