"""The G10 policies: smart tensor migration driven by the compile-time plan."""

from __future__ import annotations

from typing import Iterable

from enum import Enum

from ..core.eviction import EvictionPolicyConfig
from ..core.plan import MigrationDestination, MigrationPlan
from ..core.scheduler import MigrationPlanner
from ..graph.kernel import Kernel
from ..registry import register_policy
from ..sim.policy import MigrationDecision, MigrationPolicy, PolicyContext
from ..uvm.page_table import MemoryLocation


class G10Variant(Enum):
    """The three G10 configurations evaluated in Figure 11."""

    #: Tensor migrations between GPU and SSD only (GPUDirect Storage path).
    GDS = "G10-GDS"
    #: Adds host memory as a staging destination.
    HOST = "G10-Host"
    #: Full system: host + SSD destinations plus the extended-UVM page table,
    #: which cuts the software cost of each migration.
    FULL = "G10"


class G10Policy(MigrationPolicy):
    """Executes the migration plan produced by the smart tensor scheduler.

    The heavy lifting happens at compile time: :class:`MigrationPlanner` turns
    the vitality report into pre-eviction and prefetch instructions per kernel
    slot. At run time the policy simply issues those instructions; if the plan
    mispredicted (or did not fit everything), the executor's demand-fault path
    plus the LRU fallback of :meth:`select_victims` keep the run correct.
    """

    def __init__(
        self,
        variant: G10Variant = G10Variant.FULL,
        eager_prefetch: bool = True,
        ranking: str = "benefit_cost",
    ):
        super().__init__()
        self._variant = variant
        self._eager_prefetch = eager_prefetch
        self._ranking = ranking
        self.name = variant.value
        self._plan: MigrationPlan | None = None
        self._evictions_by_slot: dict[int, list] = {}
        self._prefetches_by_slot: dict[int, list] = {}

    # -- compile-time planning -----------------------------------------------------

    def setup(self, context: PolicyContext) -> None:
        super().setup(context)
        policy_config = EvictionPolicyConfig(
            allow_host=self._variant is not G10Variant.GDS,
            ranking=self._ranking,
        )
        planner = MigrationPlanner(
            config=context.config,
            policy=policy_config,
            eager_prefetch=self._eager_prefetch,
        )
        result = planner.plan_from_report(context.report)
        self._plan = result.plan
        self._evictions_by_slot = self._plan.evictions_by_slot()
        self._prefetches_by_slot = self._plan.prefetches_by_slot()

    @property
    def plan(self) -> MigrationPlan:
        if self._plan is None:
            raise RuntimeError("G10Policy used before setup()")
        return self._plan

    def per_request_overhead(self) -> float:
        uvm = self.context.config.uvm
        if self._variant is G10Variant.FULL:
            return uvm.extended_uvm_overhead
        return uvm.software_migration_overhead

    # -- hooks -------------------------------------------------------------------------

    def prefetches_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        return [
            MigrationDecision(p.tensor_id)
            for p in self._prefetches_by_slot.get(kernel.index, ())
        ]

    def evictions_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        decisions = []
        for eviction in self._evictions_by_slot.get(kernel.index, ()):
            destination = (
                MemoryLocation.HOST
                if eviction.destination is MigrationDestination.HOST
                else MemoryLocation.SSD
            )
            decisions.append(MigrationDecision(eviction.tensor_id, destination))
        return decisions

    def select_victims(
        self, needed_bytes: int, protected: set[int], resident: Iterable[int], now: float
    ) -> list[MigrationDecision]:
        """LRU fallback for anything the compile-time plan did not cover."""
        allow_host = self._variant is not G10Variant.GDS
        decisions: list[MigrationDecision] = []
        freed = 0
        host_free = self.context.config.host_memory_bytes if allow_host else 0
        for tensor_id in resident:
            if freed >= needed_bytes:
                break
            size = self.context.tensor_size(tensor_id)
            if allow_host and size <= host_free:
                destination = MemoryLocation.HOST
                host_free -= size
            else:
                destination = MemoryLocation.SSD
            decisions.append(MigrationDecision(tensor_id, destination))
            freed += size
        return decisions

    def describe(self) -> dict[str, str]:
        return {
            "policy": self.name,
            "variant": self._variant.name,
            "eager_prefetch": str(self._eager_prefetch),
            "ranking": self._ranking,
        }


# The three G10 configurations of Figure 11, registered as separate policies
# so experiment grids and the CLI can name each variant directly.
register_policy(
    "g10",
    lambda: G10Policy(G10Variant.FULL),
    aliases=("g10_full",),
    display="G10",
    description="Full system: host + SSD staging plus the extended-UVM page table.",
)
register_policy(
    "g10_gds",
    lambda: G10Policy(G10Variant.GDS),
    display="G10-GDS",
    description="Smart migrations between GPU and SSD only (GPUDirect Storage path).",
)
register_policy(
    "g10_host",
    lambda: G10Policy(G10Variant.HOST),
    display="G10-Host",
    description="Adds host memory as a staging destination, without the UVM extension.",
)
