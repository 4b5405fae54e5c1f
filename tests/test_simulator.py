"""Tests for the execution simulator, the event queue and the policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BaseUVMPolicy,
    DeepUMPolicy,
    FlashNeuronPolicy,
    G10Policy,
    G10Variant,
    IdealPolicy,
    POLICY_NAMES,
    make_policy,
)
from repro.config import MB, paper_config
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.harness import build_workload, run_policies, run_policy
from repro.graph import expand_training
from repro.sim import EventQueue, ExecutionSimulator
from repro.sim.policy import MigrationDecision, PolicyContext
from repro.sim.results import KernelTiming, SimulationResult
from repro.uvm.page_table import MemoryLocation

from helpers import build_tiny_mlp


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        queue.schedule(2.0, "b")
        queue.schedule(1.0, "a")
        queue.schedule(3.0, "c")
        assert [queue.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        queue = EventQueue()
        queue.schedule(1.0, "first")
        queue.schedule(1.0, "second")
        assert queue.pop().kind == "first"

    def test_pop_until(self):
        queue = EventQueue()
        for t in (0.5, 1.0, 2.0):
            queue.schedule(t, "e")
        assert len(queue.pop_until(1.0)) == 2
        assert len(queue) == 1

    def test_empty_pop_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, "x")

    @given(
        entries=st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.integers(-3, 3)),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_pop_order_matches_event_ordering(self, entries):
        # The heap keys on plain tuples; the reference is Event's own
        # (time, priority, sequence) dataclass ordering.
        queue = EventQueue()
        scheduled = [queue.schedule(time, "e", priority=prio) for time, prio in entries]
        popped = [queue.pop() for _ in scheduled]
        assert popped == sorted(scheduled)
        assert len(queue) == 0

    def test_tuple_priorities_break_same_time_ties(self):
        queue = EventQueue()
        queue.schedule(1.0, "b2", priority=(0, "b", 2))
        queue.schedule(1.0, "a1", priority=(0, "a", 1))
        queue.schedule(1.0, "b1", priority=(0, "b", 1))
        queue.schedule(1.0, "a1-again", priority=(0, "a", 1))
        queue.schedule(0.5, "early", priority=(9, "z", 9))
        assert [queue.pop().kind for _ in range(5)] == [
            "early", "a1", "a1-again", "b1", "b2",
        ]

    def test_payloads_are_never_compared(self):
        # Same time and priority: the sequence number decides, so payloads
        # without an ordering (dicts, None, objects) are fine side by side.
        queue = EventQueue()
        payloads = [{"x": 1}, None, object(), {"x": 0}]
        for payload in payloads:
            queue.schedule(1.0, "e", payload=payload)
        assert [queue.pop().payload for _ in payloads] == payloads


class TestSimulationResult:
    def _result(self, ideal=1.0, execution=2.0, stalls=(0.5, 0.5)):
        """Kernels of 0.5 s, each starting ``stall`` after the previous finish."""
        starts, finish = [], 0.0
        for stall in stalls:
            starts.append(finish + stall)
            finish = starts[-1] + 0.5
        return SimulationResult(
            model_name="m", batch_size=8, policy_name="p", ideal_time=ideal,
            execution_time=execution, ideal_durations=[0.5] * len(stalls), start_times=starts,
        )

    def test_stalls_and_timings_derive_from_the_columns(self):
        result = self._result(stalls=(0.25, 0.0, 1.0))
        assert result.start_times == [0.25, 0.75, 2.25]
        assert result.kernel_stalls() == [0.25, 0.0, 1.0]
        assert result.total_stall_time == 1.25
        assert result.kernel_timings == [
            KernelTiming(0, 0.5, 0.25, 0.25),
            KernelTiming(1, 0.5, 0.0, 0.75),
            KernelTiming(2, 0.5, 1.0, 2.25),
        ]

    def test_normalized_performance(self):
        assert self._result().normalized_performance == pytest.approx(0.5)

    def test_throughput(self):
        assert self._result().throughput() == pytest.approx(4.0)

    def test_stall_and_overlap_fractions_sum_to_one(self):
        result = self._result()
        assert result.stall_fraction + result.overlap_fraction == pytest.approx(1.0)

    def test_failed_result_reports_zero_performance(self):
        failed = SimulationResult(
            model_name="m", batch_size=8, policy_name="p",
            ideal_time=1.0, execution_time=float("inf"), failed=True,
        )
        assert failed.normalized_performance == 0.0
        assert failed.throughput() == 0.0
        assert failed.slowdown == float("inf")

    def test_cannot_beat_ideal(self):
        with pytest.raises(SimulationError):
            SimulationResult(
                model_name="m", batch_size=8, policy_name="p",
                ideal_time=2.0, execution_time=1.0,
            )

    def test_kernel_slowdowns_and_stalled_fraction(self):
        result = self._result(stalls=(0.0, 1.0))
        slowdowns = result.kernel_slowdowns()
        assert slowdowns.tolist() == [1.0, 3.0]
        assert result.stalled_kernel_fraction() == pytest.approx(0.5)


class TestExecutorBasics:
    def test_requires_profiled_graph(self, paper_cfg):
        training = expand_training(build_tiny_mlp())
        with pytest.raises(SimulationError):
            ExecutionSimulator(training, paper_cfg, IdealPolicy())

    def test_ideal_policy_matches_compute_time(self, tiny_training, paper_cfg):
        result = ExecutionSimulator(tiny_training, paper_cfg, IdealPolicy()).run()
        assert result.execution_time == pytest.approx(result.ideal_time)
        assert result.stall_fraction == pytest.approx(0.0)
        assert result.traffic.total_bytes == 0

    def test_ample_memory_means_no_migration(self, tiny_training, paper_cfg, tiny_report):
        result = ExecutionSimulator(tiny_training, paper_cfg, BaseUVMPolicy(), tiny_report).run()
        assert result.fault_events == 0
        assert result.normalized_performance == pytest.approx(1.0)

    def test_small_gpu_forces_migrations(self, tiny_training, tiny_report, small_config):
        result = ExecutionSimulator(tiny_training, small_config, BaseUVMPolicy(), tiny_report).run()
        assert not result.failed
        assert result.traffic.total_bytes > 0
        assert result.execution_time > result.ideal_time

    def test_peak_gpu_usage_respects_capacity(self, tiny_training, tiny_report, small_config):
        sim = ExecutionSimulator(tiny_training, small_config, BaseUVMPolicy(), tiny_report)
        result = sim.run()
        assert result.peak_gpu_bytes <= small_config.gpu.memory_bytes

    def test_impossible_working_set_fails_gracefully(self, tiny_training, tiny_report):
        # 16 KB of GPU memory cannot even hold one linear layer's working set.
        config = paper_config().with_gpu_memory(16 * 1024).with_host_memory(64 * MB)
        result = ExecutionSimulator(tiny_training, config, FlashNeuronPolicy(), tiny_report).run()
        assert result.failed
        assert result.failure_reason

    def test_host_pool_holds_host_evictions(self, tiny_training, tiny_report, small_config):
        sim = ExecutionSimulator(tiny_training, small_config, BaseUVMPolicy(), tiny_report)
        result = sim.run()
        host = sim.host_pool
        assert host is sim.host_pool
        assert host.capacity_bytes == small_config.host_memory_bytes
        assert result.traffic.host_write_bytes > 0
        assert 0 < host.peak_used_bytes <= host.capacity_bytes
        with pytest.raises(AttributeError):
            sim.host_pool = host


class TestPolicyFactory:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            assert make_policy(name) is not None

    @pytest.mark.parametrize(
        "alias,expected",
        [("G10", G10Policy), ("Base UVM", BaseUVMPolicy), ("DeepUM+", DeepUMPolicy), ("ideal", IdealPolicy)],
    )
    def test_aliases(self, alias, expected):
        assert isinstance(make_policy(alias), expected)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("lru-ultra")

    def test_policy_instances_are_fresh(self):
        assert make_policy("g10") is not make_policy("g10")

    def test_invalid_policy_parameters_rejected(self):
        with pytest.raises(ValueError):
            DeepUMPolicy(lookahead=0)
        with pytest.raises(ValueError):
            DeepUMPolicy(correlation_hit_rate=0.0)
        with pytest.raises(ValueError):
            FlashNeuronPolicy(prefetch_lookahead=0)


class TestPoliciesOnConstrainedWorkload:
    """End-to-end behaviour on a CI-scale BERT that exceeds GPU memory."""

    @pytest.fixture(scope="class")
    def runs(self, bert_ci_workload):
        return run_policies(bert_ci_workload, POLICY_NAMES)

    def test_ideal_is_upper_bound(self, runs):
        ideal = runs["ideal"]
        assert ideal.normalized_performance == pytest.approx(1.0)
        for name, result in runs.items():
            assert result.execution_time + 1e-9 >= ideal.execution_time

    def test_g10_outperforms_base_uvm(self, runs):
        assert runs["g10"].normalized_performance > runs["base_uvm"].normalized_performance

    def test_g10_outperforms_deepum(self, runs):
        assert runs["g10"].normalized_performance >= runs["deepum"].normalized_performance

    def test_g10_close_to_ideal(self, runs):
        assert runs["g10"].normalized_performance > 0.8

    def test_g10_has_less_stall_than_base_uvm(self, runs):
        assert runs["g10"].stall_fraction < runs["base_uvm"].stall_fraction

    def test_base_uvm_takes_page_faults(self, runs):
        assert runs["base_uvm"].fault_events > 0

    def test_g10_host_at_least_as_good_as_gds(self, runs):
        assert (
            runs["g10_host"].normalized_performance
            >= runs["g10_gds"].normalized_performance - 0.02
        )

    def test_flashneuron_uses_only_ssd(self, runs):
        assert runs["flashneuron"].traffic.gpu_host_bytes == 0

    def test_g10_gds_uses_only_ssd(self, runs):
        assert runs["g10_gds"].traffic.gpu_host_bytes == 0

    def test_transformer_traffic_prefers_host(self, runs):
        """BERT is bandwidth-hungry: G10 should route most traffic to host memory."""
        g10 = runs["g10"]
        assert g10.traffic.gpu_host_bytes > g10.traffic.gpu_ssd_bytes

    def test_migration_traffic_is_balanced(self, runs):
        """Whatever leaves the GPU must eventually come back (within ~2x)."""
        g10 = runs["g10"]
        out_bytes = g10.traffic.ssd_write_bytes + g10.traffic.host_write_bytes
        in_bytes = g10.traffic.ssd_read_bytes + g10.traffic.host_read_bytes
        assert out_bytes > 0 and in_bytes > 0
        assert 0.3 < in_bytes / out_bytes < 3.0


class TestG10Variants:
    def test_variant_names(self):
        assert G10Policy(G10Variant.GDS).name == "G10-GDS"
        assert G10Policy(G10Variant.HOST).name == "G10-Host"
        assert G10Policy(G10Variant.FULL).name == "G10"

    def test_full_variant_has_lowest_software_overhead(self, bert_ci_workload):
        full = run_policy(bert_ci_workload, "g10")
        # The plan attribute is only available on a policy instance after setup;
        # compare the configured overheads directly instead.
        uvm = bert_ci_workload.config.uvm
        assert uvm.extended_uvm_overhead < uvm.software_migration_overhead
        assert not full.failed

    def test_plan_property_requires_setup(self):
        with pytest.raises(RuntimeError):
            _ = G10Policy().plan

    def test_victim_selection_respects_needed_bytes(self, bert_ci_workload):
        policy = BaseUVMPolicy()
        from repro.sim.policy import PolicyContext

        policy.setup(PolicyContext(
            config=bert_ci_workload.config,
            graph=bert_ci_workload.graph,
            report=bert_ci_workload.report,
        ))
        resident = [t.tensor_id for t in bert_ci_workload.graph.tensors][:50]
        needed = 32 * MB
        decisions = policy.select_victims(needed, set(), resident, 0.0)
        freed = sum(bert_ci_workload.graph.tensor(d.tensor_id).size_bytes for d in decisions)
        assert freed >= min(
            needed,
            sum(bert_ci_workload.graph.tensor(t).size_bytes for t in resident),
        ) * 0.99

    def test_decision_defaults_to_ssd(self):
        assert MigrationDecision(3).destination is MemoryLocation.SSD


class TestFlashNeuronVictims:
    def test_victims_are_offloaded_intermediates(self, bert_ci_workload):
        # Globals are offered too: FlashNeuron must still pick only the
        # intermediates it chose to offload at compile time.
        graph = bert_ci_workload.graph
        policy = FlashNeuronPolicy()
        policy.setup(PolicyContext(
            config=bert_ci_workload.config, graph=graph, report=bert_ci_workload.report,
        ))
        planned = {
            d.tensor_id for kernel in graph.kernels for d in policy.evictions_for(kernel, 0.0)
        }
        offered = [t.tensor_id for t in graph.tensors]
        needed = sum(graph.tensor(tid).size_bytes for tid in offered)
        decisions = policy.select_victims(needed, set(), iter(offered), 0.0)
        assert decisions
        assert {d.tensor_id for d in decisions} == planned
        assert not any(graph.tensor(d.tensor_id).is_global for d in decisions)
        assert all(d.destination is MemoryLocation.SSD for d in decisions)


def scanned_deepum_prefetches(kernels, kernel, lookahead, hit_rate):
    """DeepUM's per-kernel rescan of the next ``lookahead`` kernels.

    The reference its prediction table replaced: walk the upcoming kernels'
    tensors in order, skip repeats, and keep those the correlation table
    predicts.
    """
    decisions, seen = [], set()
    for upcoming in kernels[kernel.index + 1 : kernel.index + 1 + lookahead]:
        for tensor_id in upcoming.tensor_ids:
            if tensor_id in seen:
                continue
            seen.add(tensor_id)
            if (tensor_id * 2654435761) % 1000 < int(hit_rate * 1000):
                decisions.append(MigrationDecision(tensor_id))
    return decisions


class TestDeepUMPredictionTable:
    @pytest.mark.parametrize("model", ["bert", "vit"])
    @pytest.mark.parametrize("hit_rate", [0.75, 0.3])
    def test_table_matches_the_per_kernel_scan(self, model, hit_rate):
        workload = build_workload(model, scale="ci")
        context = PolicyContext(
            config=workload.config, graph=workload.graph, report=workload.report
        )
        kernels = workload.graph.kernels
        for lookahead in range(1, 17):
            policy = DeepUMPolicy(lookahead=lookahead, correlation_hit_rate=hit_rate)
            policy.setup(context)
            for kernel in kernels:
                expected = scanned_deepum_prefetches(kernels, kernel, lookahead, hit_rate)
                assert policy.prefetches_for(kernel, 0.0) == expected, (
                    lookahead,
                    kernel.index,
                )

    def test_setup_rebuilds_the_table(
        self, bert_ci_workload, tiny_training, tiny_report, paper_cfg
    ):
        # A policy set up twice predicts for the second graph only.
        policy = DeepUMPolicy()
        policy.setup(PolicyContext(
            config=bert_ci_workload.config,
            graph=bert_ci_workload.graph,
            report=bert_ci_workload.report,
        ))
        policy.setup(PolicyContext(config=paper_cfg, graph=tiny_training, report=tiny_report))
        kernels = tiny_training.kernels
        for kernel in kernels:
            assert policy.prefetches_for(kernel, 0.0) == scanned_deepum_prefetches(
                kernels, kernel, 8, 0.75
            )
