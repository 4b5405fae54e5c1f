"""FlashNeuron baseline (Bae et al., FAST'21): selective offload over GPUDirect Storage.

FlashNeuron picks a subset of *intermediate* tensors at compile time (weights
are never offloaded), writes them to the SSD over direct GPU-SSD DMA after
their last forward use, and reads them back shortly before their backward use.
Host memory is never used. Tensors are chosen with FlashNeuron's linear
selection heuristic: walk the forward activations in execution order and keep
offloading until the projected memory peak fits in GPU memory.

When even the per-kernel working set cannot fit (large-batch ViT and
Inceptionv3 in the paper's footnote 1), the run fails — the executor reports a
failed :class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from typing import Iterable

from ..core.pressure import MemoryPressureTimeline, period_slot_indices
from ..graph.kernel import Kernel
from ..registry import register_policy
from ..sim.policy import MigrationDecision, MigrationPolicy, PolicyContext
from ..uvm.page_table import MemoryLocation


@register_policy(
    "flashneuron",
    aliases=("flash_neuron",),
    display="FlashNeuron",
    description="Compile-time selective offload over GPUDirect Storage (Bae et al., FAST'21).",
)
class FlashNeuronPolicy(MigrationPolicy):
    """Compile-time selective tensor offloading to the SSD (no host memory, no UVM)."""

    name = "FlashNeuron"

    def __init__(self, prefetch_lookahead: int = 4):
        super().__init__()
        if prefetch_lookahead < 1:
            raise ValueError("prefetch_lookahead must be at least 1")
        self._lookahead = prefetch_lookahead
        self._evict_at_slot: dict[int, list[int]] = {}
        self._prefetch_at_slot: dict[int, list[int]] = {}
        self._offloaded: set[int] = set()

    # -- compile-time selection ---------------------------------------------------

    def setup(self, context: PolicyContext) -> None:
        super().setup(context)
        report = context.report
        pressure = MemoryPressureTimeline(
            report.baseline_pressure, context.config.gpu.memory_bytes
        )
        num_slots = report.num_slots
        self._evict_at_slot.clear()
        self._prefetch_at_slot.clear()
        self._offloaded.clear()

        # Linear selection: walk forward-phase inactive periods of intermediate
        # tensors in start order and offload until the projected peak fits.
        candidates = [
            period
            for period in report.periods
            if not period.wraps_around
            and not context.graph.tensor(period.tensor_id).is_global
            and period.num_free_slots > 0
        ]
        candidates.sort(key=lambda p: (p.start_slot, -p.size_bytes))
        for period in candidates:
            if pressure.fits():
                break
            if pressure.eviction_benefit(period) <= 0:
                continue
            slots = period_slot_indices(period, num_slots)
            pressure.apply_eviction(period, slots)
            self._offloaded.add(period.tensor_id)
            self._evict_at_slot.setdefault(period.start_slot, []).append(period.tensor_id)
            fetch_slot = max(period.start_slot + 1, period.end_slot - self._lookahead)
            self._prefetch_at_slot.setdefault(fetch_slot, []).append(period.tensor_id)

    # -- hooks ------------------------------------------------------------------------

    def prefetches_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        return [
            MigrationDecision(tensor_id)
            for tensor_id in self._prefetch_at_slot.get(kernel.index, ())
        ]

    def evictions_for(self, kernel: Kernel, now: float) -> list[MigrationDecision]:
        return [
            MigrationDecision(tensor_id, MemoryLocation.SSD)
            for tensor_id in self._evict_at_slot.get(kernel.index, ())
        ]

    def select_victims(
        self, needed_bytes: int, protected: set[int], resident: Iterable[int], now: float
    ) -> list[MigrationDecision]:
        # FlashNeuron has no demand-paging fallback: it only offloads the
        # intermediate tensors chosen at compile time. If the working set does
        # not fit the run fails, mirroring the paper's footnote about ViT and
        # Inceptionv3 at large batch sizes.
        decisions: list[MigrationDecision] = []
        freed = 0
        for tensor_id in resident:
            if freed >= needed_bytes:
                break
            # Only intermediates are ever offloaded, so this also skips globals.
            if tensor_id not in self._offloaded:
                continue
            decisions.append(MigrationDecision(tensor_id, MemoryLocation.SSD))
            freed += self.context.tensor_size(tensor_id)
        return decisions
