"""Integration tests for the experiment harness, tables and analysis."""

import pytest

from repro.analysis import estimate_ssd_lifetime, traffic_breakdown
from repro.errors import ConfigurationError
from repro.experiments import format_table, table1_models, table2_configuration
from repro.experiments.harness import (
    build_workload,
    clear_workload_cache,
    default_batch_size,
    run_policy,
)


class TestHarness:
    def test_build_workload_is_memoized(self):
        a = build_workload("bert", scale="ci")
        b = build_workload("bert", scale="ci")
        assert a is b
        clear_workload_cache()
        c = build_workload("bert", scale="ci")
        assert c is not a

    def test_default_batch_sizes(self):
        assert default_batch_size("bert") == 256
        assert default_batch_size("SENet154") == 1024

    def test_ci_workloads_still_exceed_gpu_memory(self):
        for model in ("bert", "resnet152"):
            workload = build_workload(model, scale="ci")
            assert workload.memory_footprint_ratio > 1.0

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            build_workload("bert", scale="huge")

    def test_run_policy_with_profiling_error(self, bert_ci_workload):
        clean = run_policy(bert_ci_workload, "g10", profiling_error=0.0)
        noisy = run_policy(bert_ci_workload, "g10", profiling_error=0.2, seed=5)
        assert not noisy.failed
        # §7.6: eager prefetching keeps the impact of ±20% timing error tiny.
        assert noisy.execution_time <= clean.execution_time * 1.10


class TestTables:
    def test_table1_lists_all_models(self):
        rows = table1_models(scale="ci")
        assert {row["model"] for row in rows} == {"BERT", "ViT", "Inceptionv3", "ResNet152", "SENet154"}
        for row in rows:
            assert row["kernels"] > 50

    def test_table2_matches_paper(self):
        table = table2_configuration()
        assert table["GPU memory"] == "40 GB HBM2e"
        assert table["Page size"] == "4 KB"
        assert "3.2/3.0" in table["SSD read/write bandwidth"]
        assert table["GPU page fault handling latency"] == "45 us"

    def test_format_table_renders_dict_rows(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "|" in text and "2.500" in text

    def test_format_table_handles_sequences_and_empty(self):
        assert "x" in format_table([[1, 2]], headers=["x", "y"])
        assert format_table([]) == "(no rows)"
        with pytest.raises(ConfigurationError):
            format_table([[1, 2]])


class TestAnalysis:
    def test_traffic_breakdown_consistency(self, bert_ci_workload):
        run = run_policy(bert_ci_workload, "g10")
        breakdown = traffic_breakdown(run)
        assert breakdown.total_gb == pytest.approx(breakdown.gpu_ssd_gb + breakdown.gpu_host_gb)
        assert breakdown.read_gb + breakdown.write_gb == pytest.approx(breakdown.total_gb, rel=1e-6)

    def test_lifetime_estimate_positive(self, bert_ci_workload):
        run = run_policy(bert_ci_workload, "g10")
        estimate = estimate_ssd_lifetime(run, bert_ci_workload.config.ssd)
        assert estimate.lifetime_years > 0
        assert estimate.write_amplification >= 1.0

    def test_lifetime_rejects_failed_runs(self, bert_ci_workload):
        from repro.sim.results import SimulationResult

        failed = SimulationResult(
            model_name="m", batch_size=1, policy_name="p",
            ideal_time=1.0, execution_time=float("inf"), failed=True,
        )
        with pytest.raises(ConfigurationError):
            estimate_ssd_lifetime(failed, bert_ci_workload.config.ssd)

    def test_g10_writes_less_than_deepum(self, bert_ci_workload):
        """§7.7: smarter migration means less write traffic, hence longer SSD life."""
        g10 = run_policy(bert_ci_workload, "g10")
        uvm = run_policy(bert_ci_workload, "base_uvm")
        g10_writes = g10.traffic.ssd_write_bytes + g10.traffic.host_write_bytes
        uvm_writes = uvm.traffic.ssd_write_bytes + uvm.traffic.host_write_bytes
        assert g10_writes <= uvm_writes * 1.2
