"""Host-time spans recorded from outside the simulator.

The benchmark's traced run wraps the public entry points of each simulator
layer (class methods, and module functions at the name their caller looks up)
and records one span per call: ``{name, start, end, parent}``. Spans are kept
in memory; a layer's *self* time is its spans' durations minus the part of
each interval covered by child spans. At exit the spans are written as Chrome
trace-event JSON (the format ``chrome://tracing`` and Perfetto load).

Nothing under ``src/`` is edited: wrappers are installed on the live classes
and modules and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

PLANNER = "planner_cells"
UVM = "uvm_cells"
REPORT = "ci_report"
ALL = (PLANNER, UVM, REPORT)
#: Spans retained for the exported trace; aggregates always cover every call.
MAX_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:attr`` or ``module:Class.method``.

    ``fires_on`` names the workloads on which the wrapper must have been
    called at least once; a renamed or bypassed function then fails the run
    instead of silently reading 0 s.
    """

    path: str
    layer: str
    fires_on: tuple[str, ...]


_POLICY_HOOKS = ("select_victims", "prefetches_for", "evictions_for")

# Hot predicates (MemoryPool.can_fit/contains, pressure.fits) are deliberately
# not wrapped: they are called per tensor per kernel and the wrapper would cost
# more than the work it measures.
TARGETS: tuple[Target, ...] = (
    # Workload build: the harness looks these names up in its own namespace.
    Target("repro.experiments.harness:build_model", "graph.build", ALL),
    Target("repro.experiments.harness:expand_training", "graph.build", ALL),
    Target("repro.experiments.harness:profile_training_graph", "profiling.profile", ALL),
    Target("repro.experiments.harness:perturb_trace", "profiling.profile", (PLANNER, REPORT)),
    # Planning (G10's compile-time pass).
    Target("repro.core.vitality:TensorVitalityAnalyzer.analyze", "core.vitality", ALL),
    Target("repro.core.eviction:SmartEvictionScheduler.schedule", "core.eviction", (PLANNER, REPORT)),
    *(
        Target(f"repro.core.pressure:MemoryPressureTimeline.{name}", "core.pressure", (PLANNER, REPORT))
        for name in ("eviction_benefit", "apply_eviction", "add_bytes")
    ),
    # Public but not called by the current planner: wrapped so that a future
    # caller is attributed to the layer, not asserted to fire.
    *(
        Target(f"repro.core.pressure:MemoryPressureTimeline.{name}", "core.pressure", ())
        for name in ("slot_pressure", "headroom")
    ),
    *(
        Target(f"repro.core.bandwidth:ChannelSchedule.{name}", "core.bandwidth", (PLANNER, REPORT))
        for name in ("probe_forward", "probe_backward", "reserve")
    ),
    Target("repro.core.prefetch:SmartPrefetcher.optimize", "core.prefetch", (PLANNER, REPORT)),
    Target("repro.core.scheduler:graph_fingerprint", "core.plan_cache", (PLANNER, REPORT)),
    *(
        Target(f"repro.core.plan_cache:PlanFragmentCache.{name}", "core.plan_cache", (PLANNER, REPORT))
        for name in ("lookup_full", "lookup_schedule", "store_full", "store_schedule")
    ),
    # Event loop, policies, memory substrates.
    Target("repro.sim.executor:ExecutionSimulator.__init__", "sim.executor", ALL),
    Target("repro.sim.executor:ExecutionSimulator.run", "sim.executor", ALL),
    Target("repro.baselines.g10:G10Policy.setup", "baselines.policy", (PLANNER, REPORT)),
    *(
        Target(f"repro.baselines.g10:G10Policy.{name}", "baselines.policy", (PLANNER, REPORT))
        for name in _POLICY_HOOKS
    ),
    *(
        Target(f"repro.baselines.base_uvm:BaseUVMPolicy.{name}", "baselines.policy", (UVM, REPORT))
        for name in _POLICY_HOOKS
    ),
    *(
        Target(f"repro.baselines.deepum:DeepUMPolicy.{name}", "baselines.policy", (UVM, REPORT))
        for name in ("setup", *_POLICY_HOOKS)
    ),
    *(
        Target(f"repro.baselines.flashneuron:FlashNeuronPolicy.{name}", "baselines.policy", (UVM, REPORT))
        for name in ("setup", *_POLICY_HOOKS)
    ),
    Target("repro.uvm.memory:MemoryPool.allocate", "uvm.memory", ALL),
    Target("repro.uvm.memory:MemoryPool.free", "uvm.memory", ALL),
    *(
        Target(f"repro.uvm.page_table:UnifiedPageTable.{name}", "uvm.page_table", ALL)
        for name in ("place", "place_batch", "unmap", "register")
    ),
    Target("repro.uvm.migration:MigrationEngine.submit", "uvm.migration", ALL),
    *(
        Target(f"repro.ssd.ssd:SSDDevice.{name}", "ssd.device", ALL)
        for name in ("write_object", "read_object", "discard_object")
    ),
    Target("repro.ssd.ssd:SSDDevice.discard_objects", "ssd.device", (UVM, REPORT)),
    Target("repro.ssd.ssd:SSDDevice.preload_object", "ssd.device", ()),
    # Serialization and result-cache I/O.
    Target("repro.sim.results:SimulationResult.to_dict", "sim.results.to_dict", ALL),
    Target("repro.sim.results:SimulationResult.from_dict", "sim.results.from_dict", ALL),
    Target("repro.experiments.cache:ResultCache.put", "experiments.cache.put", ALL),
    Target("repro.experiments.cache:ResultCache.get", "experiments.cache.get", ALL),
    Target("repro.experiments.cache:ResultCache.has", "experiments.cache.get", (REPORT,)),
    # Sweep orchestration: ``_run_cells`` looks ``execute_cell`` up in the
    # sweep module, so that is the name to patch.
    Target("repro.experiments.sweep:SweepRunner.plan", "experiments.sweep.plan", (REPORT,)),
    Target("repro.experiments.sweep:SweepRunner.run", "experiments.sweep.run", (REPORT,)),
    Target("repro.experiments.sweep:execute_cell", "experiments.cell", (REPORT,)),
)


class _Frame:
    __slots__ = ("span_id", "name", "layer", "parent", "start", "children")

    def __init__(self, span_id: int, name: str, layer: str, parent: int, start: float):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.children = 0.0


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Aggregates are kept per *phase* (``setup``, ``cold``, ``fill``, ``warm``)
    so a layer's time can be reported per iteration of each phase.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self.dropped = 0
        self.phase = "setup"
        self.self_seconds: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[tuple[str, str]] = Counter()
        #: Durations of ``experiments.cell`` spans (one simulated cell), per phase.
        self.cell_seconds: defaultdict[str, list[float]] = defaultdict(list)
        self.fired: Counter[str] = Counter()
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str, layer: str) -> _Frame:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else -1
        frame = _Frame(span_id, name, layer, parent, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack corrupted at {frame.name}")
        duration = end - frame.start
        key = (self.phase, frame.layer)
        self.self_seconds[key] += duration - frame.children
        self.calls[key] += 1
        if frame.layer == "experiments.cell":
            self.cell_seconds[self.phase].append(duration)
        if self._stack:
            self._stack[-1].children += duration
        if frame.span_id < MAX_SPANS:
            self.spans.append(
                (frame.name, frame.layer, frame.start, end, frame.parent, frame.span_id)
            )
        else:
            self.dropped += 1

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span of ``layer``."""
        frame = self._enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired[name] += 1
            return self.call(name, layer, fn, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target; raises if one no longer exists under its name."""
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr)
            if raw is None:
                raise AttributeError(f"perfbench trace target {target.path} does not exist")
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(target.path, target.layer, raw.__func__))
            else:
                wrapped = self._wrap(target.path, target.layer, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse installation order)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def unfired(self, workload: str) -> list[str]:
        """Targets that should have fired on ``workload`` but never did."""
        return [t.path for t in TARGETS if workload in t.fires_on and not self.fired[t.path]]

    # -- results ---------------------------------------------------------------

    def layer_seconds(self, layer: str, iterations: dict[str, int]) -> float:
        """Self seconds of ``layer`` per iteration of each phase, summed over phases."""
        return sum(
            self.self_seconds[(phase, layer)] / count
            for phase, count in iterations.items()
            if count
        )

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write retained spans as Chrome trace-event JSON (complete events)."""
        pid = os.getpid()
        events = [
            {
                "name": name.partition(":")[2] or name,
                "cat": layer,
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for name, layer, start, end, parent, span_id in self.spans
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "dropped_spans": self.dropped},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh)
