"""The execution simulator: replay one training iteration under a policy.

The replay is a single event loop: eviction completions are events in one
:class:`~repro.sim.engine.EventQueue` (ordered by time, then tensor id, so
same-timestamp drains are deterministic) and kernel boundaries advance the
clock, draining due events before each kernel starts. ``_issue_eviction``,
``_complete_eviction`` and ``_cancel_eviction`` are an eviction's only
transitions. A :class:`~repro.sim.results.PerfCounters` layer records what
the loop did — events processed, pages moved, faults, eviction stalls.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from ..config import SystemConfig
from ..core.plan_cache import snapshot_counters as plan_cache_snapshot
from ..core.vitality import TensorVitalityAnalyzer, VitalityReport
from ..errors import SimulationError
from ..graph.training import TrainingGraph
from ..ssd.ssd import SSDDevice
from ..uvm.fault import PageFaultModel
from ..uvm.memory import MemoryPool
from ..uvm.migration import MigrationEngine, MigrationKind, MigrationRequest
from ..uvm.page_table import MemoryLocation, UnifiedPageTable
from .engine import Event, EventQueue
from .observer import SimObserver
from .policy import MigrationPolicy, PolicyContext
from .residency import ResidencyIndex
from .results import KernelTiming, PerfCounters, SimulationResult

#: Effectively unlimited capacity used by the Ideal policy's GPU pool.
_UNLIMITED = 1 << 62


class _WorkloadFailure(Exception):
    """Raised internally when a policy cannot execute the workload at all."""


class ExecutionSimulator:
    """Replays a profiled training iteration under a migration policy.

    The simulator owns the memory substrates (GPU/host pools, unified page
    table, SSD, migration engine) and enforces the execution rules: a kernel
    starts only once all of its tensors are resident in GPU memory and its
    outputs have space; every byte moved is timed by the migration engine; any
    waiting shows up as per-kernel stall time in the result.

    ``observers`` (:class:`~repro.sim.observer.SimObserver`) are notified of
    every kernel start/finish and every migration submission, so
    instrumentation no longer requires subclassing a policy.
    """

    def __init__(
        self,
        graph: TrainingGraph,
        config: SystemConfig,
        policy: MigrationPolicy,
        report: VitalityReport | None = None,
        observers: Sequence[SimObserver] = (),
    ):
        if any(k.duration <= 0 for k in graph.kernels):
            raise SimulationError("graph must be profiled before simulation")
        self._graph = graph
        self._config = config
        self._policy = policy
        self._report = report or TensorVitalityAnalyzer(graph).analyze()
        self._observers: list[SimObserver] = list(observers)
        self._perf = PerfCounters()

        gpu_capacity = config.gpu.memory_bytes if policy.enforce_capacity else _UNLIMITED
        self._gpu = MemoryPool("gpu", gpu_capacity, config.uvm.page_size)
        self._host = MemoryPool("host", config.host_memory_bytes, config.uvm.page_size)
        self._page_table = UnifiedPageTable(config.uvm.page_size)
        self._fault_model = PageFaultModel(config.uvm)

        cache_before = plan_cache_snapshot()
        policy.setup(PolicyContext(config=config, graph=graph, report=self._report))
        self._perf.plan_cache = {
            name: count - cache_before[name]
            for name, count in plan_cache_snapshot().items()
        }
        self._engine = MigrationEngine(
            config,
            ssd=SSDDevice(config.ssd),
            per_request_overhead=policy.per_request_overhead(),
        )

        #: tensor id -> completion time of the latest prefetch/fault. Every key
        #: is a GPU resident: a completed eviction and a death drop theirs.
        self._arrival_time: dict[int, float] = {}
        #: tensor id -> completion time of a pending eviction. Every key is a
        #: GPU resident: the GPU space is released when an event drains.
        self._evicting: dict[int, float] = {}
        #: The single event loop: in-flight eviction completions, ordered by
        #: (time, tensor id) so same-timestamp drains are deterministic.
        self._events = EventQueue()
        #: Planned prefetches that could not start for lack of GPU headroom;
        #: retried at the next kernel boundaries (the migration handler keeps
        #: them queued rather than dropping them).
        self._deferred_prefetches: OrderedDict[int, None] = OrderedDict()
        #: GPU residents in LRU victim order, updated at every GPU allocate,
        #: GPU free and kernel use.
        self._residency = ResidencyIndex()
        self._fault_events = 0

        self._deaths_by_slot: dict[int, list[int]] = {}
        for usage in self._report.usages.values():
            if not usage.is_global:
                self._deaths_by_slot.setdefault(usage.death_slot, []).append(usage.tensor_id)

        # Tensor sizes and the per-tensor fault costs (which depend only on
        # the size) are tabled once per run instead of per residency check
        # and per demand fault.
        self._sizes: dict[int, int] = {t.tensor_id: t.size_bytes for t in graph.tensors}
        fault_model = self._fault_model
        self._fault_batches: dict[int, int] = {
            tid: fault_model.fault_batches(size) for tid, size in self._sizes.items()
        }
        self._fault_overheads: dict[int, float] = {
            tid: fault_model.fault_overhead(size) for tid, size in self._sizes.items()
        }
        self._page_size = config.uvm.page_size
        #: GPU placements deferred within one kernel's residency loop and
        #: flushed as a single grouped page-table update (before observers and
        #: lifetime bookkeeping see the kernel boundary).
        self._pending_gpu_places: list[int] = []

    # -- public API ----------------------------------------------------------------

    @property
    def engine(self) -> MigrationEngine:
        return self._engine

    @property
    def page_table(self) -> UnifiedPageTable:
        return self._page_table

    @property
    def host_pool(self) -> MemoryPool:
        return self._host

    def add_observer(self, observer: SimObserver) -> None:
        """Attach one more observer before (or during) the run."""
        self._observers.append(observer)

    @property
    def perf(self) -> PerfCounters:
        """Live instrumentation counters of this run."""
        return self._perf

    def run(self) -> SimulationResult:
        """Simulate one training iteration and return the result."""
        try:
            result = self._run()
            self._finalize_perf()
            return result
        except _WorkloadFailure as failure:
            # Placements deferred by tensors that *did* fit before the failure
            # must still land, so the PTE accounting matches the sequential
            # reference behaviour.
            self._flush_gpu_places()
            self._finalize_perf()
            return SimulationResult(
                model_name=self._graph.name,
                batch_size=self._graph.batch_size,
                policy_name=self._policy.name,
                ideal_time=self._graph.trace().total_compute_time,
                execution_time=float("inf"),
                failed=True,
                failure_reason=str(failure),
                perf=self._perf,
            )

    def _finalize_perf(self) -> None:
        self._perf.fault_events = self._fault_events
        self._perf.pte_updates = self._page_table.pte_updates

    # -- main loop --------------------------------------------------------------------

    def _run(self) -> SimulationResult:
        self._place_global_tensors()
        ideal_durations: list[float] = []
        start_times: list[float] = []
        observers = self._observers
        now = 0.0
        on_gpu = self._gpu.contains
        deferred = self._deferred_prefetches

        for kernel in self._graph.kernels:
            for event in self._events.pop_until(now):
                self._complete_eviction(event)

            # A tensor already on the GPU needs no transfer: prefetching it
            # only cancels its pending eviction, if any, so _issue_prefetch and
            # _ensure_resident see only tensors off the GPU. A deferred one
            # stays off it until its retry or a demand fault drops it.
            for tensor_id in list(deferred):
                if self._issue_prefetch(tensor_id, now):
                    del deferred[tensor_id]
            for decision in self._policy.prefetches_for(kernel, now):
                tensor_id = decision.tensor_id
                if on_gpu(tensor_id):
                    self._cancel_eviction(tensor_id)
                elif not self._issue_prefetch(tensor_id, now):
                    deferred[tensor_id] = None

            tensor_ids = kernel.tensor_ids
            protected = set(tensor_ids)
            ready = now
            for tensor_id in tensor_ids:
                if on_gpu(tensor_id):
                    if self._cancel_eviction(tensor_id):
                        # Needed again while being pre-evicted: it stays (the
                        # outbound copy becomes wasted bandwidth). The host
                        # copy's capacity releases now (victim evictions check
                        # host headroom); the GPU placement joins the
                        # kernel's grouped page-table flush.
                        self._pending_gpu_places.append(tensor_id)
                        self._host.free(tensor_id)
                    usable = self._arrival_time.get(tensor_id, now)
                else:
                    usable = self._ensure_resident(tensor_id, protected, now)
                if usable > ready:
                    ready = usable
            self._flush_gpu_places()

            for observer in observers:
                observer.on_kernel_start(kernel, ready)
            # The result keeps the two columns and derives each stall as
            # ``ready - now`` again; a record is built only for observers.
            ideal_durations.append(kernel.duration)
            start_times.append(ready)
            stall = ready - now
            now = ready + kernel.duration
            self._perf.events_processed += 1
            self._perf.kernels_executed += 1
            if observers:
                timing = KernelTiming(kernel.index, kernel.duration, stall, ready)
                for observer in observers:
                    observer.on_kernel_finish(kernel, timing, now)

            self._residency.used(tensor_ids)
            self._policy.on_kernel_finished(kernel, now)
            self._free_dead_tensors(kernel.index)

            for decision in self._policy.evictions_for(kernel, now):
                self._issue_eviction(decision.tensor_id, decision.destination, now, protected=())

        ssd = self._engine.ssd
        return SimulationResult(
            model_name=self._graph.name,
            batch_size=self._graph.batch_size,
            policy_name=self._policy.name,
            ideal_time=self._graph.trace().total_compute_time,
            execution_time=now,
            ideal_durations=ideal_durations,
            start_times=start_times,
            perf=self._perf,
            traffic=self._engine.traffic,
            ssd_bytes_written=ssd.statistics.bytes_written,
            ssd_bytes_read=ssd.statistics.bytes_read,
            fault_events=self._fault_events,
            peak_gpu_bytes=self._gpu.peak_used_bytes,
            peak_host_bytes=self._host.peak_used_bytes,
        )

    # -- setup ------------------------------------------------------------------------

    def _place_global_tensors(self) -> None:
        """Initial residency: weights/optimizer state fill GPU, then host, then SSD."""
        globals_sorted = sorted(
            (t for t in self._graph.tensors if t.is_global),
            key=lambda t: self._report.usages.get(t.tensor_id).birth_slot
            if t.tensor_id in self._report.usages
            else 0,
        )
        for tensor in globals_sorted:
            self._page_table.register(tensor.tensor_id, tensor.size_bytes)
            if self._gpu.can_fit(tensor.size_bytes):
                self._gpu.allocate(tensor.tensor_id, tensor.size_bytes)
                self._residency.allocated(tensor.tensor_id)
                self._page_table.place(tensor.tensor_id, MemoryLocation.GPU)
            elif self._host.can_fit(tensor.size_bytes):
                self._host.allocate(tensor.tensor_id, tensor.size_bytes)
                self._page_table.place(tensor.tensor_id, MemoryLocation.HOST)
            else:
                self._engine.preload_flash(tensor.tensor_id, tensor.size_bytes)
                self._page_table.place(tensor.tensor_id, MemoryLocation.FLASH)

    # -- residency management --------------------------------------------------------------

    def _ensure_resident(self, tensor_id: int, protected: set[int], now: float) -> float:
        """Bring a kernel operand that is not on the GPU into GPU memory.

        Returns when the tensor is usable.
        """
        size = self._sizes[tensor_id]
        if tensor_id not in self._page_table:
            self._page_table.register(tensor_id, size)

        location = self._page_table.location_of(tensor_id)
        space_ready = self._make_space(size, protected, now)
        self._gpu.allocate(tensor_id, size)
        self._residency.allocated(tensor_id)

        if location is MemoryLocation.UNMAPPED:
            # Fresh allocation (kernel output or workspace): no data transfer.
            self._pending_gpu_places.append(tensor_id)
            return space_ready

        # Demand fault: the kernel needs data that lives in host or flash
        # memory. Fault costs come from the per-tensor tables built at
        # construction; the GPU placement is deferred into the kernel's
        # grouped flush while the remote-copy release stays immediate
        # (host/SSD capacity interleaves with victim evictions).
        request = MigrationRequest(
            tensor_id=tensor_id,
            size_bytes=size,
            source=location,
            destination=MemoryLocation.GPU,
            kind=MigrationKind.FAULT,
        )
        overhead = self._fault_overheads[tensor_id]
        self._fault_events += self._fault_batches[tensor_id]
        completion = self._submit(request, max(now, space_ready) + overhead)
        self._release_remote_copy(tensor_id, location)
        self._pending_gpu_places.append(tensor_id)
        self._arrival_time[tensor_id] = completion
        self._deferred_prefetches.pop(tensor_id, None)
        return completion

    def _flush_gpu_places(self) -> None:
        """Apply the kernel's deferred GPU placements as one grouped update."""
        if self._pending_gpu_places:
            self._page_table.place_batch(self._pending_gpu_places, MemoryLocation.GPU)
            self._pending_gpu_places.clear()

    def _issue_prefetch(self, tensor_id: int, now: float) -> bool:
        """Start fetching a tensor that is not on the GPU ahead of its use.

        Returns True when the prefetch was issued or is unnecessary, False when
        it must be retried later because the GPU has no headroom yet.
        """
        if tensor_id not in self._page_table:
            return True
        location = self._page_table.location_of(tensor_id)
        if location in (MemoryLocation.UNMAPPED, MemoryLocation.GPU):
            return True
        size = self._sizes[tensor_id]
        # The kernel boundary drained every eviction due by ``now``, and
        # prefetches schedule none, so the headroom check needs no drain.
        if not self._gpu.can_fit(size):
            return False
        self._gpu.allocate(tensor_id, size)
        self._residency.allocated(tensor_id)
        request = MigrationRequest(
            tensor_id=tensor_id,
            size_bytes=size,
            source=location,
            destination=MemoryLocation.GPU,
            kind=MigrationKind.PREFETCH,
        )
        completion = self._submit(request, now)
        self._release_remote_copy(tensor_id, location)
        self._page_table.place(tensor_id, MemoryLocation.GPU)
        self._arrival_time[tensor_id] = completion
        return True

    def _issue_eviction(
        self,
        tensor_id: int,
        destination: MemoryLocation,
        now: float,
        protected: tuple[int, ...] | set[int],
    ) -> None:
        """Start evicting a GPU resident, which keeps its space until the event drains."""
        if (
            not self._gpu.contains(tensor_id)
            or tensor_id in self._evicting
            or tensor_id in protected
        ):
            return
        size = self._sizes[tensor_id]
        if destination is MemoryLocation.HOST and not self._host.can_fit(size):
            destination = MemoryLocation.SSD
        target = (
            MemoryLocation.HOST if destination is MemoryLocation.HOST else MemoryLocation.FLASH
        )
        request = MigrationRequest(
            tensor_id=tensor_id,
            size_bytes=size,
            source=MemoryLocation.GPU,
            destination=target,
            kind=MigrationKind.EVICTION,
        )
        completion = self._submit(request, now)
        if target is MemoryLocation.HOST:
            self._host.allocate(tensor_id, size)
        self._page_table.place(tensor_id, target)
        self._evicting[tensor_id] = completion
        self._events.schedule(completion, "eviction-complete", tensor_id, priority=tensor_id)

    def _complete_eviction(self, event: Event) -> None:
        """Free a drained event's tensor's GPU space if it is pending eviction. A
        cancel leaves its event queued, which then frees a later eviction early."""
        self._perf.events_processed += 1
        tensor_id = event.payload
        if self._evicting.pop(tensor_id, None) is not None:
            self._gpu.free(tensor_id)
            self._residency.freed(tensor_id)
            self._arrival_time.pop(tensor_id, None)

    def _cancel_eviction(self, tensor_id: int) -> bool:
        """Drop a pending eviction; returns whether one was pending. It undoes
        nothing else: the page table keeps the eviction's target, a staged host
        copy or flash object stays, and the queued event still fires."""
        return self._evicting.pop(tensor_id, None) is not None

    def _submit(self, request: MigrationRequest, when: float) -> float:
        """Submit a migration to the engine, notifying observers."""
        completion = self._engine.submit(request, when)
        self._perf.pages_moved += max(1, -(-request.size_bytes // self._page_size))
        for observer in self._observers:
            observer.on_migration(request, when, completion)
        return completion

    def _release_remote_copy(self, tensor_id: int, location: MemoryLocation) -> None:
        if location is MemoryLocation.HOST:
            self._host.free(tensor_id)
        elif location is MemoryLocation.FLASH:
            self._engine.ssd.discard_object(tensor_id)

    # -- space management ------------------------------------------------------------------

    def _make_space(self, size_bytes: int, protected: set[int], now: float) -> float:
        """Ensure ``size_bytes`` can be allocated; returns when the space exists.

        No event due by ``now`` is queued: the kernel boundary drained them,
        and every eviction issued since completes later."""
        if self._gpu.can_fit(size_bytes):
            return now

        # First ask the policy for victims to push out, offering the evictable
        # resident tensors in least-recently-used order.
        unavailable = protected | set(self._evicting)
        needed = size_bytes - self._gpu.free_bytes
        victims = self._policy.select_victims(
            needed, unavailable, self._residency.victims(unavailable), now
        )
        for decision in victims:
            self._issue_eviction(decision.tensor_id, decision.destination, now, protected)

        # Then wait for enough in-flight evictions to drain.
        current = now
        while not self._gpu.can_fit(size_bytes):
            if not len(self._events):
                raise _WorkloadFailure(
                    f"policy {self._policy.name!r} cannot free {size_bytes} bytes of GPU "
                    "memory: the kernel working set exceeds usable capacity"
                )
            event = self._events.pop()
            current = max(current, event.time)
            self._complete_eviction(event)
        if current > now:
            self._perf.eviction_stalls += 1
            self._perf.eviction_stall_seconds += current - now
        return current

    # -- tensor lifetime ------------------------------------------------------------------------

    def _free_dead_tensors(self, slot: int) -> None:
        """Release intermediate tensors after their last use.

        A dead tensor loses every copy, including a flash object that a
        cancelled eviction left behind; the flash objects go in one grouped
        TRIM. None is pending eviction: its last-use kernel cancelled that.
        """
        flash_dead: list[int] = []
        for tensor_id in self._deaths_by_slot.pop(slot, ()):
            self._gpu.free(tensor_id)
            self._residency.died(tensor_id)
            self._host.free(tensor_id)
            if tensor_id in self._page_table:
                self._page_table.unmap(tensor_id)
            if self._engine.ssd.contains(tensor_id):
                flash_dead.append(tensor_id)
            self._arrival_time.pop(tensor_id, None)
        if flash_dead:
            self._engine.ssd.discard_objects(flash_dead)
