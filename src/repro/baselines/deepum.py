"""DeepUM+ baseline: UVM with a correlation-table prefetcher (Jung et al., ASPLOS'23).

DeepUM records which kernel follows which during training and prefetches the
pages the upcoming kernels touched last iteration. Because one training
iteration repeats the same kernel sequence, the correlation prefetcher is well
approximated by a fixed lookahead over the (deterministic) kernel trace: while
kernel *k* runs, the tensors of kernels *k+1 .. k+L* are prefetched. Whether
the correlation table predicts a tensor is fixed per tensor, so setup tables
the predicted tensors of every kernel once. Eviction remains LRU; the paper's
DeepUM+ extension spills to the SSD when host memory is full, which the
executor's host-capacity fallback provides.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from ..graph.kernel import Kernel
from ..registry import register_policy
from ..sim.policy import MigrationDecision, MigrationPolicy, PolicyContext
from ..uvm.page_table import MemoryLocation


@register_policy(
    "deepum",
    aliases=("deepum_plus",),
    display="DeepUM+",
    description="UVM plus a correlation-table prefetcher (Jung et al., ASPLOS'23).",
)
class DeepUMPolicy(MigrationPolicy):
    """Correlation-prefetching UVM (the paper's DeepUM+).

    ``correlation_hit_rate`` models the imperfection of the correlation
    tables: DeepUM predicts future pages from the previous iteration's fault
    stream, so a fraction of the upcoming working set is not prefetched and
    takes the full demand-fault path instead. The rich tensor semantics G10
    gets from the compiler are exactly what this prefetcher lacks.
    """

    name = "DeepUM+"

    def __init__(
        self,
        lookahead: int = 8,
        eviction_watermark: float = 0.90,
        correlation_hit_rate: float = 0.75,
    ):
        super().__init__()
        if lookahead < 1:
            raise ValueError("lookahead must be at least 1")
        if not 0 < eviction_watermark <= 1:
            raise ValueError("eviction_watermark must be in (0, 1]")
        if not 0 < correlation_hit_rate <= 1:
            raise ValueError("correlation_hit_rate must be in (0, 1]")
        self._lookahead = lookahead
        self._watermark = eviction_watermark
        self._hit_rate = correlation_hit_rate
        self._gpu_capacity = 0
        #: The prefetch decision of every tensor the correlation table predicts.
        self._decisions: dict[int, MigrationDecision] = {}
        #: Per kernel, in trace order: the predicted tensors it touches.
        self._predicted: list[tuple[int, ...]] = []

    def setup(self, context: PolicyContext) -> None:
        super().setup(context)
        self._gpu_capacity = context.config.gpu.memory_bytes
        kernels = context.graph.kernels
        touched = dict.fromkeys(chain.from_iterable(kernel.tensor_ids for kernel in kernels))
        decisions = {
            tensor_id: MigrationDecision(tensor_id)
            for tensor_id in touched
            if self._correlation_predicts(tensor_id)
        }
        self._decisions = decisions
        self._predicted = [
            tuple(tensor_id for tensor_id in kernel.tensor_ids if tensor_id in decisions)
            for kernel in kernels
        ]

    # -- hooks -------------------------------------------------------------------

    def prefetches_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        # The predicted tensors of the next ``lookahead`` kernels, each once,
        # in order of first occurrence.
        upcoming = self._predicted[kernel.index + 1 : kernel.index + 1 + self._lookahead]
        decisions = self._decisions
        return [
            decisions[tensor_id] for tensor_id in dict.fromkeys(chain.from_iterable(upcoming))
        ]

    def _correlation_predicts(self, tensor_id: int) -> bool:
        """Deterministic stand-in for the correlation table's hit/miss behaviour."""
        bucket = (tensor_id * 2654435761) % 1000
        return bucket < int(self._hit_rate * 1000)

    def evictions_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        # DeepUM evicts reactively (on faults) rather than by plan; proactive
        # eviction is handled through select_victims when allocations fail.
        return []

    def select_victims(
        self, needed_bytes: int, protected: set[int], resident: Iterable[int], now: float
    ) -> list[MigrationDecision]:
        decisions: list[MigrationDecision] = []
        freed = 0
        host_free = self.context.config.host_memory_bytes
        # Free a little beyond the immediate need so the next few allocations
        # do not fault straight back into the eviction path.
        target = needed_bytes + int((1.0 - self._watermark) * self._gpu_capacity)
        for tensor_id in resident:
            if freed >= target:
                break
            size = self.context.tensor_size(tensor_id)
            destination = MemoryLocation.HOST if size <= host_free else MemoryLocation.SSD
            if destination is MemoryLocation.HOST:
                host_free -= size
            decisions.append(MigrationDecision(tensor_id, destination))
            freed += size
        return decisions
