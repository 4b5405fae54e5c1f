"""The simulation engine: the event queue and the single simulation entry point.

Every way of running a simulation — ``Scenario.run()``, the sweep runner's
worker processes and the ``run_policy`` harness function — funnels into
:func:`simulate`, which owns the one place an
:class:`~repro.sim.executor.ExecutionSimulator` is constructed. The executor
itself replays the kernel trace, draining a single :class:`EventQueue` that
holds its timestamped eviction completions, with a
:class:`~repro.sim.results.PerfCounters` instrumentation layer recording what
the loop did.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig
    from ..core.vitality import VitalityReport
    from ..graph.training import TrainingGraph
    from .observer import SimObserver
    from .policy import MigrationPolicy
    from .results import SimulationResult

#: A tie-break key for same-timestamp events. Single-tenant simulations use
#: plain ints (the executor schedules eviction completions with
#: ``priority=tensor_id``); multi-tenant simulations use tuples such as
#: ``(rank, tenant_name, request_index)`` so the drain order depends only on
#: stable identities, never on the order tenants were registered. Within one
#: queue all priorities must be mutually comparable (all ints or all
#: same-shape tuples).
Priority = int | tuple[int | str, ...]


@dataclass(order=True)
class Event:
    """One scheduled event: a timestamp plus an arbitrary payload.

    Events order by ``(time, priority, sequence)``; the priority gives the
    executor deterministic tie-breaks between same-timestamp events (eviction
    completions are scheduled with ``priority=tensor_id``, reproducing the
    historical ``(completion, tensor_id)`` drain order). The ``sequence``
    counter is a last-resort FIFO tie-break only: any event source whose
    scheduling order can vary (e.g. multiple tenants registering arrivals)
    must encode a content-derived :data:`Priority` tuple so same-timestamp
    drains are independent of insertion order.
    """

    time: float
    priority: Priority = 0
    sequence: int = 0
    kind: str = field(compare=False, default="")
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Priority queue of timestamped events with stable FIFO tie-breaking.

    Heap entries are ``(time, priority, sequence, event)`` tuples: the same
    order as :class:`Event`'s, compared natively instead of through the
    dataclass ``__lt__``. The unique sequence number means the event itself is
    never compared.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, Priority, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time: float, kind: str, payload: Any = None, priority: Priority = 0
    ) -> Event:
        """Add an event at an absolute timestamp."""
        if time < 0:
            raise SimulationError("cannot schedule an event at negative time")
        sequence = next(self._counter)
        event = Event(
            time=time, priority=priority, sequence=sequence, kind=kind, payload=payload,
        )
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        return heapq.heappop(self._heap)[3]

    def pop_until(self, time: float) -> list[Event]:
        """Pop every event with timestamp <= ``time`` in order."""
        due: list[Event] = []
        while self._heap and self._heap[0][0] <= time:
            due.append(self.pop())
        return due


def simulate(
    graph: "TrainingGraph",
    config: "SystemConfig",
    policy: "MigrationPolicy",
    report: "VitalityReport | None" = None,
    observers: "Sequence[SimObserver]" = (),
) -> "SimulationResult":
    """Run one training iteration under a policy — the single simulation path.

    This is the only place an :class:`~repro.sim.executor.ExecutionSimulator`
    is constructed: ``Scenario.run``, the sweep workers' ``execute_cell`` and
    the harness functions all route here through ``run_policy``, so
    simulator setup logic cannot drift between entry points.
    """
    from .executor import ExecutionSimulator

    return ExecutionSimulator(graph, config, policy, report, observers=observers).run()
