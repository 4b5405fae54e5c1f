"""Multi-tenant serving: N request streams time-sharing one GPU + SSD.

This module is the *deterministic core* of the multi-tenant simulation: it
consumes fully materialised :class:`TenantTrace` records (per-request kernel
timelines plus precomputed arrival or think times) and replays them through a
single :class:`~repro.sim.engine.EventQueue`. All randomness lives one layer
up, in :mod:`repro.experiments.tenancy`, where arrival processes are sampled
from seeded generators — this file never touches a clock or an entropy
source, so the linter's DET rules hold for it like for the rest of ``sim/``.

The contention model is deliberately simple and exact:

* **Compute** is serialized at kernel granularity under least-attained-service
  scheduling: at every kernel boundary the ready request whose tenant has
  received the least solo-time service runs next (ties break on arrival time,
  then tenant name, then request index — never on registration order).
* **Memory** is a shared LRU pool of per-request working sets. Admitting a
  request beyond GPU capacity spills least-recently-run requests to the SSD;
  the spill write (amplified by a GC interference factor that grows with
  cumulative spill traffic) stalls the incoming request, and a spilled
  request pays a refill read when it next runs.
* **Latency bookkeeping** is replay-exact: each request carries the cumulative
  kernel-finish offsets of its solo run, and its completion is
  ``base + delay + offset`` where ``delay`` accumulates only queueing and
  contention stalls. With one tenant and one request the delay stays exactly
  ``0.0``, so the request latency equals the solo ``execution_time``
  bit-for-bit — the degenerate-tenancy equivalence the golden suite locks in.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError, SimulationError
from .engine import EventQueue
from .results import PerfCounters

#: Event kind used for request arrivals on the shared queue.
KIND_ARRIVAL = "request-arrival"

#: Page size used to convert spill traffic into ``PerfCounters.pages_moved``.
_PAGE_BYTES = 4096


@dataclass(frozen=True)
class TenantTrace:
    """One tenant's request stream, fully materialised for deterministic replay.

    ``offsets`` are the cumulative kernel-finish times of a *solo* run of one
    request (``offsets[k] == start_times[k] + ideal_durations[k]`` from the
    solo :class:`~repro.sim.results.SimulationResult`'s columns, so
    ``offsets[-1]`` equals the solo ``execution_time`` bit-for-bit). Exactly
    one of ``arrivals`` (open loop: absolute request arrival times) and
    ``think_times`` (closed loop: request ``i`` arrives ``think_times[i]``
    after request ``i-1`` completes) must be non-empty.
    """

    name: str
    offsets: tuple[float, ...]
    footprint_bytes: int
    arrivals: tuple[float, ...] = ()
    think_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not self.offsets:
            raise ConfigurationError(f"tenant {self.name!r} has an empty kernel timeline")
        # Chained comparisons that NaN and infinity fail, so neither reaches
        # the replay as a time.
        previous = 0.0
        for offset in self.offsets:
            if not previous <= offset < math.inf:
                raise ConfigurationError(
                    f"tenant {self.name!r} kernel offsets must be finite and non-decreasing"
                )
            previous = offset
        if not 0 <= self.footprint_bytes < math.inf:
            raise ConfigurationError(f"tenant {self.name!r} footprint must be finite and >= 0")
        if bool(self.arrivals) == bool(self.think_times):
            raise ConfigurationError(
                f"tenant {self.name!r} must set exactly one of arrivals/think_times"
            )
        previous = 0.0
        for arrival in self.arrivals:
            if not previous <= arrival < math.inf:
                raise ConfigurationError(
                    f"tenant {self.name!r} arrivals must be finite, non-negative and sorted"
                )
            previous = arrival
        if not all(0 <= t < math.inf for t in self.think_times):
            raise ConfigurationError(f"tenant {self.name!r} think times must be finite and >= 0")

    @property
    def request_count(self) -> int:
        """Number of requests this tenant issues."""
        return len(self.arrivals) or len(self.think_times)

    @property
    def solo_latency(self) -> float:
        """Uncontended latency of one request (the solo ``execution_time``)."""
        return self.offsets[-1]


@dataclass(frozen=True)
class SharedSystem:
    """The colocated hardware every tenant contends for."""

    gpu_capacity_bytes: int
    spill_write_bandwidth: float
    spill_read_bandwidth: float
    ssd_capacity_bytes: int
    #: Strength of the GC interference term: the effective write amplification
    #: of a spill is ``1 + gc_alpha * min(1, cumulative_spill / ssd_capacity)``.
    gc_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.gpu_capacity_bytes <= 0:
            raise ConfigurationError("shared GPU capacity must be positive")
        if self.spill_write_bandwidth <= 0 or self.spill_read_bandwidth <= 0:
            raise ConfigurationError("spill bandwidths must be positive")
        if self.ssd_capacity_bytes <= 0:
            raise ConfigurationError("shared SSD capacity must be positive")
        if self.gc_alpha < 0:
            raise ConfigurationError("gc_alpha must be >= 0")


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one served request."""

    tenant: str
    index: int
    arrival: float
    first_start: float
    completion: float
    #: End-to-end latency (``delay + solo latency``; exact, not ``completion -
    #: arrival``, so zero-contention latencies match solo runs bit-for-bit).
    latency: float
    #: Time between arrival and first kernel execution.
    queue_delay: float
    #: Contention-induced memory stall charged to this request.
    stall_seconds: float


@dataclass(frozen=True)
class TenantServiceStats:
    """Per-tenant aggregate of one multi-tenant simulation."""

    name: str
    latencies: tuple[float, ...]
    queue_delays: tuple[float, ...]
    #: Times this tenant's requests stalled waiting on spills/refills.
    eviction_stalls: int
    #: Simulated seconds this tenant spent stalled on the shared memory pool.
    eviction_stall_seconds: float
    #: Extra stall seconds attributable to SSD GC write amplification.
    gc_interference_seconds: float
    #: Times this tenant's resident working sets were spilled by others.
    times_evicted: int
    spill_bytes_written: int
    spill_bytes_read: int


@dataclass(frozen=True)
class TenancyOutcome:
    """Everything :func:`simulate_tenancy` produces."""

    tenants: dict[str, TenantServiceStats]
    records: tuple[RequestRecord, ...]
    makespan: float
    perf: PerfCounters


@dataclass(eq=False)
class _Request:
    """Mutable in-flight state of one request (identity-hashed)."""

    trace: TenantTrace
    index: int
    arrival: float
    #: ``base + delay + offsets[k]`` is the finish time of kernel ``k``;
    #: ``delay`` only ever grows, by queueing waits and memory stalls.
    base: float
    delay: float = 0.0
    next_kernel: int = 0
    first_start: float = -1.0
    stall_seconds: float = 0.0
    evicted: bool = False

    @property
    def tenant(self) -> str:
        return self.trace.name

    @property
    def done(self) -> bool:
        return self.next_kernel >= len(self.trace.offsets)


@dataclass
class _TenantState:
    """Mutable per-tenant accumulators."""

    trace: TenantTrace
    #: Solo-time service received so far (the fair-share currency).
    attained: float = 0.0
    next_request: int = 0
    latencies: dict[int, float] = field(default_factory=dict)
    queue_delays: dict[int, float] = field(default_factory=dict)
    eviction_stalls: int = 0
    eviction_stall_seconds: float = 0.0
    gc_interference_seconds: float = 0.0
    times_evicted: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0


class _SharedPool:
    """LRU pool of per-request working sets over the shared GPU memory."""

    def __init__(
        self, system: SharedSystem, perf: PerfCounters, states: dict[str, "_TenantState"]
    ):
        self._system = system
        self._perf = perf
        self._states = states
        #: Insertion-ordered: least-recently-run request first.
        self._resident: dict[_Request, int] = {}
        self._resident_bytes = 0
        self._cumulative_spill = 0.0

    def release(self, request: _Request) -> None:
        size = self._resident.pop(request, None)
        if size is not None:
            self._resident_bytes -= size

    def admit(self, request: _Request, state: _TenantState) -> float:
        """Make ``request``'s working set resident; return the stall charged."""
        if request in self._resident:
            # Still resident: refresh recency, no data moves.
            size = self._resident.pop(request)
            self._resident[request] = size
            return 0.0

        need = min(request.trace.footprint_bytes, self._system.gpu_capacity_bytes)
        spilled = 0
        while self._resident and self._resident_bytes + need > self._system.gpu_capacity_bytes:
            victim, size = next(iter(self._resident.items()))
            del self._resident[victim]
            self._resident_bytes -= size
            victim.evicted = True
            self._states[victim.tenant].times_evicted += 1
            spilled += size
        stall = 0.0
        if spilled:
            utilization = min(1.0, self._cumulative_spill / self._system.ssd_capacity_bytes)
            amplification = 1.0 + self._system.gc_alpha * utilization
            write_time = spilled * amplification / self._system.spill_write_bandwidth
            gc_extra = spilled * (amplification - 1.0) / self._system.spill_write_bandwidth
            self._cumulative_spill += spilled
            state.gc_interference_seconds += gc_extra
            state.spill_bytes_written += spilled
            self._perf.pages_moved += max(1, math.ceil(spilled / _PAGE_BYTES))
            stall += write_time
        if request.evicted:
            # Previously spilled: pay the refill read before running again.
            refill = request.trace.footprint_bytes
            stall += refill / self._system.spill_read_bandwidth
            state.spill_bytes_read += refill
            self._perf.fault_events += 1
            if refill:
                self._perf.pages_moved += max(1, math.ceil(refill / _PAGE_BYTES))
            request.evicted = False
        self._resident[request] = need
        self._resident_bytes += need
        return stall


class _ReadyRequests:
    """The requests ready to run, picked by least-attained-service.

    The scheduling key ``(attained, arrival, tenant, index)`` is a total
    order. A tenant's requests share its attained service, so each tenant
    keeps a heap ordered by ``(arrival, index)``, and the least key is the
    least among the tenants' heads: a pick compares one request per tenant,
    not every ready request.
    """

    def __init__(self, states: dict[str, _TenantState]) -> None:
        self._states = states
        self._heaps: dict[str, list[tuple[float, int, _Request]]] = {name: [] for name in states}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, request: _Request) -> None:
        heapq.heappush(self._heaps[request.tenant], (request.arrival, request.index, request))
        self._count += 1

    def least(self) -> _Request:
        heads = (
            (self._states[name].attained, heap[0][0], name, heap[0][1], heap[0][2])
            for name, heap in self._heaps.items()
            if heap
        )
        return min(heads)[-1]

    def remove(self, request: _Request) -> None:
        """Drop the running request, which is its tenant's head: every
        request added since it was picked forced a new pick."""
        heapq.heappop(self._heaps[request.tenant])
        self._count -= 1


def simulate_tenancy(
    traces: "tuple[TenantTrace, ...] | list[TenantTrace]",
    system: SharedSystem,
) -> TenancyOutcome:
    """Interleave every tenant's request stream on the shared system.

    The result is a pure function of ``traces`` and ``system``: tenants are
    processed in sorted-name order, every same-timestamp tie breaks on
    content-derived keys, and no clock or entropy source is consulted —
    permuting the order of ``traces`` cannot change a single bit of the
    outcome.
    """
    if not traces:
        raise ConfigurationError("simulate_tenancy needs at least one tenant trace")
    ordered = sorted(traces, key=lambda trace: trace.name)
    names = [trace.name for trace in ordered]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"tenant names must be unique, got {names}")

    perf = PerfCounters()
    events = EventQueue()
    states = {trace.name: _TenantState(trace) for trace in ordered}
    pool = _SharedPool(system, perf, states)
    records: list[RequestRecord] = []
    ready = _ReadyRequests(states)

    def schedule_arrival(trace: TenantTrace, index: int, when: float) -> None:
        request = _Request(trace=trace, index=index, arrival=when, base=when)
        events.schedule(when, KIND_ARRIVAL, request, priority=(trace.name, index))

    for trace in ordered:
        if trace.arrivals:
            for index, when in enumerate(trace.arrivals):
                schedule_arrival(trace, index, when)
        else:
            schedule_arrival(trace, 0, trace.think_times[0])
        states[trace.name].next_request = 1

    now = 0.0
    current: _Request | None = None
    while ready or len(events):
        if not ready:
            event = events.pop()
            perf.events_processed += 1
            now = max(now, event.time)
            ready.add(event.payload)
            continue
        arrived = False
        for event in events.pop_until(now):
            perf.events_processed += 1
            ready.add(event.payload)
            arrived = True

        # Event-driven least-attained-service: re-pick only when the running
        # request completed or a new request became ready. Preemption still
        # lands on kernel boundaries, but between events a request runs
        # contiguously, so memory thrash scales with arrivals, not kernels.
        if current is None or arrived:
            current = ready.least()
        request = current
        state = states[request.tenant]
        stall = pool.admit(request, state)
        if stall > 0:
            request.stall_seconds += stall
            state.eviction_stalls += 1
            state.eviction_stall_seconds += stall
            perf.eviction_stalls += 1
            perf.eviction_stall_seconds += stall
        if request.first_start < 0:
            request.first_start = now + stall

        kernel = request.next_kernel
        previous_offset = request.trace.offsets[kernel - 1] if kernel else 0.0
        request.delay = max(request.delay, now + stall - request.base - previous_offset)
        finish = request.base + request.delay + request.trace.offsets[kernel]
        state.attained += request.trace.offsets[kernel] - previous_offset
        request.next_kernel += 1
        perf.kernels_executed += 1
        now = finish

        if request.done:
            ready.remove(request)
            pool.release(request)
            current = None
            latency = request.delay + request.trace.solo_latency
            state.latencies[request.index] = latency
            state.queue_delays[request.index] = request.first_start - request.arrival
            records.append(
                RequestRecord(
                    tenant=request.tenant,
                    index=request.index,
                    arrival=request.arrival,
                    first_start=request.first_start,
                    completion=finish,
                    latency=latency,
                    queue_delay=request.first_start - request.arrival,
                    stall_seconds=request.stall_seconds,
                )
            )
            trace = request.trace
            if not trace.arrivals and state.next_request < len(trace.think_times):
                index = state.next_request
                state.next_request += 1
                schedule_arrival(trace, index, finish + trace.think_times[index])

    incomplete = [
        state.trace.name
        for state in states.values()
        if len(state.latencies) != state.trace.request_count
    ]
    if incomplete:
        raise SimulationError(f"tenants did not complete all requests: {incomplete}")

    tenants = {
        name: TenantServiceStats(
            name=name,
            latencies=tuple(state.latencies[i] for i in range(state.trace.request_count)),
            queue_delays=tuple(state.queue_delays[i] for i in range(state.trace.request_count)),
            eviction_stalls=state.eviction_stalls,
            eviction_stall_seconds=state.eviction_stall_seconds,
            gc_interference_seconds=state.gc_interference_seconds,
            times_evicted=state.times_evicted,
            spill_bytes_written=state.spill_bytes_written,
            spill_bytes_read=state.spill_bytes_read,
        )
        for name, state in sorted(states.items())
    }
    return TenancyOutcome(tenants=tenants, records=tuple(records), makespan=now, perf=perf)
