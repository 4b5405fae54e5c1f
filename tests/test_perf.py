"""PerfCounters instrumentation and the single simulation entry point."""

from __future__ import annotations

import time

import pytest

from repro.baselines import BaseUVMPolicy, available_policies, make_policy
from repro.core.vitality import TensorVitalityAnalyzer
from repro.experiments.harness import build_workload, run_policy
from repro.graph import expand_training
from repro.profiling import profile_training_graph
from repro.sim import ExecutionSimulator, PerfCounters, SimulationResult, simulate
from repro.sim.engine import Event, EventQueue

#: Every host clock of the ``time`` module.
CLOCKS = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
)

#: Small and medium cells, one per model scale and policy family.
CORE_CELLS = [
    pytest.param(model, scale, policy, id=f"{model}@default/{scale}/{policy}")
    for model, scale, policy in (
        ("bert", "ci", "g10"),
        ("vit", "ci", "base_uvm"),
        ("resnet152", "ci", "g10"),
        ("bert", "paper", "g10"),
    )
]


class TestPerfCounters:
    def _run(self, tiny_training, tiny_report, config):
        return ExecutionSimulator(tiny_training, config, BaseUVMPolicy(), tiny_report).run()

    def test_totals_are_consistent(self, tiny_training, tiny_report, small_config):
        sim = ExecutionSimulator(tiny_training, small_config, BaseUVMPolicy(), tiny_report)
        result = sim.run()
        perf = result.perf
        assert perf.kernels_executed == len(tiny_training.kernels)
        # Every kernel boundary is an event; eviction completions add more.
        assert perf.events_processed >= perf.kernels_executed
        assert perf.fault_events == result.fault_events
        assert perf.pte_updates == sim.page_table.pte_updates
        moves = result.traffic.fault_count + result.traffic.prefetch_count + result.traffic.eviction_count
        if moves:
            assert perf.pages_moved > 0
        assert perf.eviction_stall_seconds >= 0.0
        if perf.eviction_stall_seconds:
            assert perf.eviction_stalls > 0

    def test_no_pressure_means_no_movement(self, tiny_training, tiny_report, paper_cfg):
        perf = self._run(tiny_training, tiny_report, paper_cfg).perf
        assert perf.pages_moved == 0
        assert perf.eviction_stalls == 0
        assert perf.eviction_stall_seconds == 0.0

    def test_counters_are_deterministic(self, tiny_training, tiny_report, small_config):
        first = self._run(tiny_training, tiny_report, small_config).perf
        second = self._run(tiny_training, tiny_report, small_config).perf
        assert first.to_dict() == second.to_dict()
        assert first == second

    def test_round_trip_and_legacy_payload_tolerance(
        self, tiny_training, tiny_report, small_config
    ):
        result = self._run(tiny_training, tiny_report, small_config)
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored.perf == result.perf
        assert restored == result
        # Payloads cached before the perf layer existed deserialize to zeros.
        legacy = result.to_dict()
        del legacy["perf"]
        assert SimulationResult.from_dict(legacy).perf == PerfCounters()

    def test_failed_runs_still_carry_counters(self, tiny_training, tiny_report, paper_cfg):
        from repro.baselines import FlashNeuronPolicy

        starved = paper_cfg.with_gpu_memory(64 * 1024)
        result = ExecutionSimulator(
            tiny_training, starved, FlashNeuronPolicy(), tiny_report
        ).run()
        assert result.failed
        assert result.perf.fault_events == result.fault_events


class TestCoreCells:
    """Each cell runs cold and then warm, as perfbench's traced passes run it."""

    @pytest.mark.parametrize("model, scale, policy", CORE_CELLS)
    def test_core_cell(self, model, scale, policy):
        workload = build_workload(model, scale=scale)
        cold = run_policy(workload, policy)
        warm = run_policy(workload, policy)
        for result in (cold, warm):
            assert not result.failed
            assert result.perf.kernels_executed > 0
            assert result.perf.events_processed >= result.perf.kernels_executed
        assert warm.to_dict() == cold.to_dict()
        # The warm run replans nothing: each of its plan lookups is a hit.
        assert warm.perf.plan_cache["misses"] == 0
        assert sum(warm.perf.plan_cache.values()) == sum(cold.perf.plan_cache.values())


class TestNoHostClock:
    """No deterministic layer reads a host clock, not even for a number kept
    out of the results: host time is measured from outside (``perfbench/``)."""

    @pytest.mark.parametrize("policy", available_policies())
    def test_profile_and_simulate_read_no_clock(
        self, policy, tiny_graph, small_config, monkeypatch
    ):
        reads = []
        for name in CLOCKS:
            clock = getattr(time, name)
            monkeypatch.setattr(
                time, name, lambda clock=clock, name=name: reads.append(name) or clock()
            )
        training = profile_training_graph(expand_training(tiny_graph), small_config)
        report = TensorVitalityAnalyzer(training).analyze()
        result = ExecutionSimulator(training, small_config, make_policy(policy), report).run()
        monkeypatch.undo()
        assert result.perf.kernels_executed > 0
        assert reads == []


class TestEventOrdering:
    def test_priority_breaks_same_time_ties(self):
        queue = EventQueue()
        queue.schedule(1.0, "kernel", priority=1 << 62)
        queue.schedule(1.0, "evict-b", payload=7, priority=7)
        queue.schedule(1.0, "evict-a", payload=3, priority=3)
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == ["evict-a", "evict-b", "kernel"]

    def test_events_default_to_fifo_within_a_priority(self):
        queue = EventQueue()
        queue.schedule(2.0, "late")
        queue.schedule(1.0, "first")
        queue.schedule(1.0, "second")
        assert [queue.pop().kind for _ in range(3)] == ["first", "second", "late"]
        assert Event(1.0, 0, 0, "a") < Event(1.0, 1, 0, "b")


class TestSinglePath:
    def test_simulate_matches_executor(self, tiny_training, tiny_report, small_config):
        via_engine = simulate(tiny_training, small_config, BaseUVMPolicy(), tiny_report)
        direct = ExecutionSimulator(
            tiny_training, small_config, BaseUVMPolicy(), tiny_report
        ).run()
        assert via_engine.to_dict() == direct.to_dict()

    def test_harness_routes_through_engine(self, bert_ci_workload, monkeypatch):
        """run_policy must call the single entry point, not build its own sim."""
        import repro.experiments.harness as harness

        calls = []
        real = harness.simulate

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate", spy)
        harness.run_policy(bert_ci_workload, "base_uvm")
        assert len(calls) == 1
