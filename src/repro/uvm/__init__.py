"""Unified GPU memory and storage substrate (§4.5, §4.6 of the paper).

This package models the memory-system half of G10:

* :class:`UnifiedAddressSpace` — tensors mapped into one virtual address space
  at 4 KB page granularity;
* :class:`UnifiedPageTable` — leaf PTEs resolving to GPU memory, host memory,
  or flash pages (the paper's UVM extension), plus a :class:`TLB` model;
* :class:`MemoryPool` — byte/page accounted GPU and host memory pools;
* :class:`PageFaultModel` — the cost of the GPU fault path (Table 2's 45 µs);
* :class:`MigrationEngine` — the timed transfers of Figure 10's runtime half,
  one request at a time over the PCIe and SSD channels.
"""

from .address_space import UnifiedAddressSpace, VirtualRange
from .page_table import MemoryLocation, PageTableEntry, UnifiedPageTable
from .tlb import TLB
from .memory import MemoryPool
from .fault import PageFaultModel
from .migration import MigrationEngine, MigrationRequest, MigrationKind

__all__ = [
    "UnifiedAddressSpace",
    "VirtualRange",
    "MemoryLocation",
    "PageTableEntry",
    "UnifiedPageTable",
    "TLB",
    "MemoryPool",
    "PageFaultModel",
    "MigrationEngine",
    "MigrationRequest",
    "MigrationKind",
]
