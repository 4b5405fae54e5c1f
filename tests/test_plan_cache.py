"""Tests for the cross-cell plan-fragment cache.

The cache must be *value-transparent*: a hit returns a plan bit-identical to
what fresh planning would produce, keys must separate inputs the planner
actually reads (and only those), and the executor and sweep layers must see
truthful hit/miss counters.
"""

import dataclasses

import pytest

from repro.core import MigrationPlanner
from repro.core.eviction import EvictionPolicyConfig
from repro.core.plan_cache import (
    PlanFragmentCache,
    get_plan_cache,
    graph_fingerprint,
    planner_config_key,
    snapshot_counters,
)
from repro.experiments.harness import run_policy


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts and ends with an empty process-global cache."""
    cache = get_plan_cache()
    cache.reset()
    yield cache
    cache.reset()


def _plan(workload, **kwargs):
    planner = MigrationPlanner(workload.config, **kwargs)
    return planner.plan_from_report(workload.report).plan


class TestValueTransparency:
    def test_full_hit_is_bit_identical_to_miss(self, fresh_cache, bert_ci_workload):
        first = _plan(bert_ci_workload)
        assert fresh_cache.stats.misses == 1
        second = _plan(bert_ci_workload)
        assert fresh_cache.stats.full_hits == 1
        assert second == first
        # Defensive container copies: mutating a returned plan must not
        # corrupt the cached entry.
        second.evictions.clear()
        assert _plan(bert_ci_workload) == first

    def test_fragment_hit_replays_only_the_prefetcher(
        self, fresh_cache, bert_ci_workload
    ):
        lazy = _plan(bert_ci_workload, eager_prefetch=False)
        fresh_cache.reset()
        expected_eager = _plan(bert_ci_workload, eager_prefetch=True)
        fresh_cache.reset()

        assert _plan(bert_ci_workload, eager_prefetch=False) == lazy
        # Same schedule fragment, different eager flag: fragment hit, and the
        # replayed prefetcher must reproduce the fresh eager plan exactly.
        eager = _plan(bert_ci_workload, eager_prefetch=True)
        assert fresh_cache.stats.fragment_hits == 1
        assert eager == expected_eager

    def test_executor_results_identical_across_cache_states(self, bert_ci_workload):
        cold = run_policy(bert_ci_workload, "g10")
        warm = run_policy(bert_ci_workload, "g10")
        assert warm.perf.plan_cache["misses"] == 0
        assert warm.perf.plan_cache["full_hits"] >= 1
        assert warm.execution_time == cold.execution_time
        assert warm.perf.to_dict() == cold.perf.to_dict()


class TestKeys:
    def test_planner_read_config_changes_miss(self, fresh_cache, bert_ci_workload):
        _plan(bert_ci_workload)
        smaller = dataclasses.replace(
            bert_ci_workload.config,
            gpu=dataclasses.replace(
                bert_ci_workload.config.gpu,
                memory_bytes=bert_ci_workload.config.gpu.memory_bytes // 2,
            ),
        )
        planner = MigrationPlanner(smaller)
        planner.plan_from_report(bert_ci_workload.report)
        assert fresh_cache.stats.misses == 2
        assert fresh_cache.stats.hits == 0

    def test_runtime_only_config_changes_share_plans(
        self, fresh_cache, bert_ci_workload
    ):
        _plan(bert_ci_workload)
        # UVM fault costs and SSD capacity are runtime-execution knobs the
        # planner never reads; they must not split the cache key.
        runtime_variant = dataclasses.replace(
            bert_ci_workload.config,
            uvm=dataclasses.replace(
                bert_ci_workload.config.uvm,
                fault_latency=bert_ci_workload.config.uvm.fault_latency * 2,
            ),
        )
        MigrationPlanner(runtime_variant).plan_from_report(bert_ci_workload.report)
        assert fresh_cache.stats.full_hits == 1
        assert planner_config_key(
            runtime_variant, EvictionPolicyConfig()
        ) == planner_config_key(bert_ci_workload.config, EvictionPolicyConfig())

    def test_policy_knobs_split_the_key(self, bert_ci_workload):
        base = planner_config_key(bert_ci_workload.config, EvictionPolicyConfig())
        gds = planner_config_key(
            bert_ci_workload.config, EvictionPolicyConfig(allow_host=False)
        )
        assert base != gds

    def test_graph_fingerprint_sensitive_to_durations(
        self, bert_ci_workload, resnet_ci_workload
    ):
        bert = bert_ci_workload.report.graph
        assert graph_fingerprint(bert) == graph_fingerprint(bert)
        assert graph_fingerprint(bert) != graph_fingerprint(
            resnet_ci_workload.report.graph
        )
        # Perturbing one kernel duration by one ULP must change the hash:
        # profiling-noise graphs may not share plans with clean ones.
        kernels = list(bert.kernels)
        nudged = dataclasses.replace(
            kernels[0], duration=kernels[0].duration * (1 + 1e-15)
        )
        perturbed = dataclasses.replace(bert, kernels=[nudged, *kernels[1:]])
        assert graph_fingerprint(perturbed) != graph_fingerprint(bert)


class TestCacheMechanics:
    def test_lru_bound(self):
        cache = PlanFragmentCache(max_entries=4)
        from repro.core.plan import MigrationPlan

        plan = MigrationPlan(num_slots=1, gpu_capacity_bytes=1)
        for index in range(10):
            cache.store_full((f"graph-{index}",), plan)
        assert len(cache) <= 4
        assert cache.lookup_full(("graph-9",)) is not None
        assert cache.lookup_full(("graph-0",)) is None

    def test_reset_clears_entries_and_counters(self, fresh_cache, bert_ci_workload):
        _plan(bert_ci_workload)
        assert len(fresh_cache) > 0
        fresh_cache.reset()
        assert len(fresh_cache) == 0
        assert snapshot_counters() == {
            "full_hits": 0,
            "fragment_hits": 0,
            "misses": 0,
        }
