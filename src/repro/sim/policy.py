"""Policy interface between the execution simulator and migration strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

from ..config import SystemConfig
from ..core.vitality import VitalityReport
from ..graph.kernel import Kernel
from ..graph.training import TrainingGraph
from ..uvm.page_table import MemoryLocation


@dataclass(frozen=True, slots=True)
class MigrationDecision:
    """One policy decision: move a tensor toward or away from the GPU."""

    tensor_id: int
    #: For evictions: where to stage the tensor. For prefetches: ignored (the
    #: executor fetches from wherever the tensor currently lives).
    destination: MemoryLocation = MemoryLocation.SSD


@dataclass
class PolicyContext:
    """Read-only view of the workload handed to policies at setup time."""

    config: SystemConfig
    graph: TrainingGraph
    report: VitalityReport

    def tensor_size(self, tensor_id: int) -> int:
        return self.graph.tensor(tensor_id).size_bytes


class MigrationPolicy(ABC):
    """Decides which tensors move between GPU, host and SSD, and when.

    The executor drives the policy with three hooks:

    * :meth:`prefetches_for` — tensors to start fetching right before a kernel;
    * :meth:`evictions_for` — tensors to start evicting right after a kernel;
    * :meth:`select_victims` — emergency evictions when an allocation cannot be
      satisfied (the demand-paging path).

    ``per_request_overhead`` models the software cost of initiating one
    explicit migration; G10's extended UVM reduces it to ~2 µs while
    host-managed designs pay a driver round trip.
    """

    #: Human-readable policy name used in result tables.
    name: str = "abstract"
    #: Whether the GPU memory capacity applies (the Ideal policy disables it).
    enforce_capacity: bool = True

    def __init__(self) -> None:
        self._context: PolicyContext | None = None

    # -- lifecycle -------------------------------------------------------------

    def setup(self, context: PolicyContext) -> None:
        """Called once before the simulation starts."""
        self._context = context

    @property
    def context(self) -> PolicyContext:
        if self._context is None:
            raise RuntimeError("policy used before setup()")
        return self._context

    def per_request_overhead(self) -> float:
        """Software overhead charged per explicit migration request."""
        return self.context.config.uvm.software_migration_overhead

    # -- decision hooks -----------------------------------------------------------

    @abstractmethod
    def prefetches_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        """Tensors to start fetching into GPU memory before ``kernel`` runs."""

    @abstractmethod
    def evictions_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        """Tensors to start evicting out of GPU memory after ``kernel`` ran."""

    @abstractmethod
    def select_victims(
        self,
        needed_bytes: int,
        protected: set[int],
        resident: Iterable[int],
        now: float,
    ) -> list[MigrationDecision]:
        """Pick tensors to evict so that ``needed_bytes`` can be allocated.

        ``resident`` yields the evictable tensors currently in GPU memory,
        least recently used first. Tensors no kernel has used yet come first,
        in allocation order; they include tensors just prefetched for an
        upcoming kernel. Used tensors follow, from the oldest last use to the
        newest. A tensor that was used, evicted and brought back by a
        prefetch or fault keeps the position of its use before the eviction.
        The stream supports one pass only and must be consumed before this
        method returns; stop iterating once enough bytes are chosen.
        ``protected`` tensors never appear in it (they are needed by the
        executing kernel or already in flight).
        """

    # -- optional notifications -----------------------------------------------------

    def on_kernel_finished(self, kernel: Kernel, now: float) -> None:
        """Called after each kernel completes (for policies that track recency)."""

    def describe(self) -> dict[str, str]:
        """Metadata for result reporting."""
        return {"policy": self.name}
