"""Observer hooks for the execution simulator.

Instrumenting a run used to require subclassing a policy and intercepting its
decision hooks; :class:`SimObserver` decouples observation from decision
making. Observers attach to an :class:`~repro.sim.executor.ExecutionSimulator`
(directly, or through an in-process ``Scenario.run(observers=...)`` /
:func:`~repro.experiments.harness.run_policy`) and are notified of every
kernel execution and every migration the executor submits. A run through a
sweep runner executes in a cache or a worker process, which no observer
reaches, so ``Scenario.run`` rejects observers together with a runner::

    class StallLogger(SimObserver):
        def on_kernel_finish(self, kernel, timing, now):
            if timing.stall > 0:
                print(f"kernel {kernel.index} stalled {timing.stall * 1e3:.2f} ms")

    Scenario("bert", scale="ci").run(observers=(StallLogger(),))

Hooks are best-effort notifications: they must not mutate simulator state, and
their return values are ignored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.kernel import Kernel
    from ..uvm.migration import MigrationRequest
    from .results import KernelTiming


class SimObserver:
    """Base class for simulator instrumentation; every hook is a no-op.

    Subclass and override any subset of the hooks. All times are simulated
    seconds since the start of the iteration.
    """

    def on_kernel_start(self, kernel: "Kernel", start_time: float) -> None:
        """``kernel`` begins executing at ``start_time`` (stalls resolved)."""

    def on_kernel_finish(self, kernel: "Kernel", timing: "KernelTiming", now: float) -> None:
        """``kernel`` finished at ``now``; ``timing`` carries its stall breakdown."""

    def on_migration(self, request: "MigrationRequest", submitted: float, completion: float) -> None:
        """A migration (fault, prefetch or eviction) was submitted.

        ``request`` identifies the tensor, direction and kind; ``submitted``
        is the submission time and ``completion`` the time the transfer will
        finish draining.
        """


class TraceRecorder(SimObserver):
    """Reference observer that records every event as a plain tuple.

    ``events`` holds, in order: ``("kernel_start", index, start_time)``,
    ``("kernel_finish", index, stall, finish_time)`` and
    ``("migration", kind, tensor_id, source, destination, submitted,
    completion)``. Useful in tests and as a template for custom observers.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_kernel_start(self, kernel, start_time):
        self.events.append(("kernel_start", kernel.index, start_time))

    def on_kernel_finish(self, kernel, timing, now):
        self.events.append(("kernel_finish", kernel.index, timing.stall, now))

    def on_migration(self, request, submitted, completion):
        self.events.append(
            (
                "migration",
                request.kind.name.lower(),
                request.tensor_id,
                request.source.name.lower(),
                request.destination.name.lower(),
                submitted,
                completion,
            )
        )

    def count(self, event_kind: str) -> int:
        """Number of recorded events of one kind (``"migration"``, ...)."""
        return sum(1 for event in self.events if event[0] == event_kind)

    def migrations(self, kind: str | None = None) -> list[tuple]:
        """Recorded migration events, optionally filtered by kind name."""
        return [
            event
            for event in self.events
            if event[0] == "migration" and (kind is None or event[1] == kind)
        ]
