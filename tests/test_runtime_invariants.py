"""Runtime invariants: the executor checked after every event and at every kernel start.

:class:`CheckedSimulator` is the executor with assertions. The ``checked``
fixture swaps it in as ``repro.sim.executor.ExecutionSimulator``, which
:func:`~repro.sim.engine.simulate` looks up on every call, so ``run_policy``
and ``Scenario.run`` run a cell checked, noisy cells included, while the
executor itself carries no flag. The checker asserts:

* after every drained ``eviction-complete`` event: event times never
  decrease, GPU used bytes stay within capacity, and every pending eviction's
  tensor is in the GPU pool;
* at every kernel start: the same two pool checks; every operand is in the
  GPU pool, not pending eviction, and its latest inbound transfer has
  completed; no deferred prefetch is on the GPU;
* whenever ``_make_space`` starts: no event due by ``now`` is queued;
* at every issued prefetch: the tensor is off the GPU;
* at every death: no dying tensor has a pending eviction, and none keeps a
  flash object once the death sweep is over;
* at run end: every FLASH-placed tensor is stored, and the SSD's stored bytes
  are the sum of its objects' sizes.

It records, without failing, the breaches of three known eviction-lifecycle
defects. Each is a strict xfail on one CI cell, so its fix flips it:

* (a) a prefetch that cancels an eviction undoes none of it, so at run end
  the GPU pool minus the pending evictions differs from the page table's GPU
  set, and the host pool from its HOST set;
* (b) a cancel leaves its eviction's event queued, and when the tensor is
  evicted again, that stale event frees the GPU space before the new
  transfer has completed;
* (c) an operand that cancels a flash eviction keeps the flash object, so the
  SSD's objects differ from the FLASH set.
"""

from __future__ import annotations

import math
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.factory import POLICY_NAMES, make_policy
from repro.config import paper_config
from repro.core.vitality import TensorVitalityAnalyzer
from repro.experiments.harness import build_workload, clear_workload_cache, run_policy
from repro.graph import expand_training
from repro.profiling import profile_training_graph
from repro.sim import executor
from repro.sim.executor import ExecutionSimulator
from repro.sim.observer import SimObserver, TraceRecorder
from repro.uvm.page_table import MemoryLocation

from helpers import build_branchy_graph, build_tiny_mlp, cell_id, simulation_cells
from test_paper_digests import CELLS as PAPER_CELLS

GOLDEN_CELLS = simulation_cells()


class CheckedSimulator(ExecutionSimulator, SimObserver):
    """The executor, asserting its runtime invariants while it runs.

    It observes its own kernel starts and migrations. ``stale_completions``
    lists defect (b)'s events, each freeing a pending eviction that completes
    later, as ``(tensor id, event time, pending completion)``; after the run, ``misplaced`` maps ``"gpu"``, ``"host"``
    and ``"flash"`` to the tensors on which a pool and the page table
    disagree (defects (a) and (c)).
    """

    #: The last finished run, for a test that reached it through ``simulate``.
    last: CheckedSimulator | None = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: tensor id -> completion of its latest transfer to the GPU.
        self._inbound: dict[int, float] = {}
        self._drained_until = -math.inf
        self.stale_completions: list[tuple[int, float, float]] = []
        self.misplaced: dict[str, set[int]] = {}
        self.add_observer(self)

    def run(self):
        self.result = super().run()
        self._check_run_end()
        type(self).last = self
        return self.result

    # -- observed ----------------------------------------------------------------

    def on_migration(self, request, submitted, completion) -> None:
        if request.destination is MemoryLocation.GPU:
            self._inbound[request.tensor_id] = completion

    def on_kernel_start(self, kernel, start_time) -> None:
        on_gpu = self._gpu.contains
        for tensor_id in kernel.tensor_ids:
            assert on_gpu(tensor_id), f"kernel {kernel.index}: operand {tensor_id} is off the GPU"
            assert tensor_id not in self._evicting, (
                f"kernel {kernel.index}: operand {tensor_id} is pending eviction"
            )
            landed = self._inbound.get(tensor_id, start_time)
            assert landed <= start_time, (
                f"kernel {kernel.index} starts at {start_time} before operand "
                f"{tensor_id} lands at {landed}"
            )
        assert not any(map(on_gpu, self._deferred_prefetches)), "a deferred prefetch is on the GPU"
        self._check_pools()

    # -- checked transitions -------------------------------------------------------

    def _complete_eviction(self, event) -> None:
        assert event.time >= self._drained_until, (
            f"event at {event.time} drained after one at {self._drained_until}"
        )
        self._drained_until = event.time
        pending = self._evicting.get(event.payload)
        super()._complete_eviction(event)
        freed = pending is not None and event.payload not in self._evicting
        if freed and pending != event.time:
            self.stale_completions.append((event.payload, event.time, pending))
        self._check_pools()

    def _make_space(self, size_bytes, protected, now):
        due = self._events.pop_until(now)  # pops only when the assertion fails
        assert not due, f"{len(due)} events due by {now} queued when _make_space starts"
        return super()._make_space(size_bytes, protected, now)

    def _issue_prefetch(self, tensor_id, now):
        assert not self._gpu.contains(tensor_id), f"prefetch of GPU resident {tensor_id}"
        return super()._issue_prefetch(tensor_id, now)

    def _free_dead_tensors(self, slot) -> None:
        dying = self._deaths_by_slot.get(slot, ())
        assert not any(t in self._evicting for t in dying), "a dying tensor is pending eviction"
        super()._free_dead_tensors(slot)
        stored = self.engine.ssd.contains
        assert not any(map(stored, dying)), "a dead tensor keeps a flash object"

    # -- checks --------------------------------------------------------------------

    def _check_pools(self) -> None:
        gpu = self._gpu
        assert gpu.used_bytes <= gpu.capacity_bytes, "GPU used bytes exceed capacity"
        assert all(map(gpu.contains, self._evicting)), "a pending eviction left the GPU pool"

    def _check_run_end(self) -> None:
        table, ssd = self.page_table, self.engine.ssd
        stored = {tensor_id for tensor_id in self._sizes if ssd.contains(tensor_id)}
        on_flash = set(table.resident_tensors(MemoryLocation.FLASH))
        assert on_flash <= stored, "a FLASH-placed tensor is not stored"
        assert ssd.stored_bytes == sum(self._sizes[tensor_id] for tensor_id in stored)
        settled_on_gpu = set(self._gpu.resident_tensors()) - set(self._evicting)
        self.misplaced = {
            "gpu": settled_on_gpu ^ set(table.resident_tensors(MemoryLocation.GPU)),
            "host": set(self.host_pool.resident_tensors())
            ^ set(table.resident_tensors(MemoryLocation.HOST)),
            "flash": stored - on_flash,
        }


def test_every_checked_transition_is_an_executor_method():
    # A renamed executor method would leave its override here never called.
    for name in ("_complete_eviction", "_make_space", "_issue_prefetch", "_free_dead_tensors"):
        assert name in vars(ExecutionSimulator), name


@pytest.fixture
def checked(monkeypatch):
    """Run every simulation of the test under :class:`CheckedSimulator`."""
    monkeypatch.setattr(executor, "ExecutionSimulator", CheckedSimulator)
    monkeypatch.setattr(CheckedSimulator, "last", None)


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=cell_id)
def test_golden_cell_keeps_the_runtime_invariants(cell, checked):
    result = cell.run().result
    assert CheckedSimulator.last is not None and CheckedSimulator.last.result is result


@pytest.mark.slow
def test_paper_digest_cells_keep_the_runtime_invariants(checked):
    try:
        for model, batch, policy, noise in PAPER_CELLS:
            workload = build_workload(model, batch, "paper")
            result = run_policy(workload, policy, profiling_error=noise)
            assert CheckedSimulator.last.result is result
    finally:
        clear_workload_cache()


# -- the three known defects, one CI cell each ---------------------------------------


def checked_ci_run(model: str, policy: str) -> CheckedSimulator:
    workload = build_workload(model, scale="ci")
    simulator = CheckedSimulator(
        workload.graph, workload.config, make_policy(policy), workload.report
    )
    assert not simulator.run().failed
    return simulator


@pytest.mark.xfail(strict=True, reason="(a) a prefetch cancel does not undo the eviction")
def test_a_prefetch_cancel_restores_the_placement():
    misplaced = checked_ci_run("resnet152", "g10").misplaced
    assert misplaced["gpu"] == misplaced["host"] == set()


@pytest.mark.xfail(strict=True, reason="(b) a stale completion event frees GPU space early")
def test_a_completion_event_completes_only_its_own_eviction():
    assert checked_ci_run("resnet152", "g10").stale_completions == []


@pytest.mark.xfail(strict=True, reason="(c) an operand cancel keeps the flash copy")
def test_an_operand_cancel_discards_the_flash_object():
    assert checked_ci_run("vit", "g10_gds").misplaced["flash"] == set()


# -- random small graphs through every policy ------------------------------------------


@cache
def profiled(graph: tuple):
    """A small graph's profiled training iteration, its vitality report, its
    largest kernel working set (in whole pages) and its footprint."""
    kind, *shape = graph
    built = build_tiny_mlp(*shape) if kind == "mlp" else build_branchy_graph(*shape)
    training = profile_training_graph(expand_training(built), paper_config())
    report = TensorVitalityAnalyzer(training).analyze()
    page = paper_config().uvm.page_size
    pages = {t.tensor_id: -(-t.size_bytes // page) * page for t in training.tensors}
    working_set = max(sum(pages[t] for t in k.tensor_ids) for k in training.kernels)
    return training, report, working_set, max(working_set, int(report.peak_pressure))


@st.composite
def small_systems(draw):
    """``(graph, GPU bytes, host bytes)``: a tiny MLP ``(batch, hidden,
    layers)`` or a branchy graph ``(batch,)``, GPU memory between its largest
    kernel working set and its footprint, host memory up to twice the footprint."""
    graph = draw(
        st.tuples(
            st.just("mlp"), st.integers(1, 16), st.sampled_from((32, 64, 128)), st.integers(1, 4)
        )
        | st.tuples(st.just("branchy"), st.integers(1, 8))
    )
    _, _, working_set, footprint = profiled(graph)
    return graph, draw(st.integers(working_set, footprint)), draw(st.integers(0, 2 * footprint))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=small_systems())
def test_random_small_graphs_keep_the_runtime_invariants(system):
    graph, gpu_bytes, host_bytes = system
    training, report, _, _ = profiled(graph)
    config = paper_config().with_gpu_memory(gpu_bytes).with_host_memory(host_bytes)
    for policy in POLICY_NAMES:
        result = CheckedSimulator(training, config, make_policy(policy), report).run()
        # The only accepted non-clean outcome: an impossible working set.
        assert not result.failed or "exceeds usable capacity" in result.failure_reason


def test_a_kernel_waits_for_an_evicted_operands_prefetch():
    # The LRU fallback evicts tensor 2 while its prefetch is in flight, and
    # kernel 19 cancels that eviction; it used to start at 558.247 us, before
    # the prefetch landed at 562.507 us.
    config = paper_config()
    training = profile_training_graph(expand_training(build_tiny_mlp(8, 128, 4)), config)
    config = config.with_gpu_memory(438_736).with_host_memory(88_105)
    recorder = TraceRecorder()
    ExecutionSimulator(training, config, make_policy("g10_host"), observers=(recorder,)).run()
    operands = {kernel.index: kernel.tensor_ids for kernel in training.kernels}
    landed: dict[int, float] = {}
    evicted_in_flight = set()
    for event in recorder.events:
        if event[0] == "kernel_start":
            assert all(landed.get(t, 0.0) <= event[2] for t in operands[event[1]]), event
        elif event[0] == "migration":
            _, kind, tensor_id, _, _, submitted, completion = event
            if kind == "eviction" and submitted < landed.get(tensor_id, 0.0):
                evicted_in_flight.add(tensor_id)
            elif kind != "eviction":
                landed[tensor_id] = completion
    assert 2 in evicted_in_flight
