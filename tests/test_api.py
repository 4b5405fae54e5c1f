"""Tests for the Scenario API (repro.api) and its compatibility contract.

The headline guarantee: ``Scenario(...).run()`` is bit-identical to the
equivalent ``build_workload`` + ``run_policy`` call and to the same cell
executed through a ``SweepRunner`` or ``execute_cell``, while adding
provenance (config fingerprint, sweep cache key, policy metadata) and
observer hooks.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from pathlib import Path

import pytest

import repro
from repro import GB, Scenario, TraceRecorder
from repro.config import paper_config
from repro.errors import ConfigurationError, ModelError
from repro.experiments import ConfigPatch, ResultCache, SweepCell, SweepRunner, execute_cell
from repro.experiments.harness import build_workload, run_policy
from repro.sim.results import SimulationResult
from repro.sim import ExecutionSimulator, SimObserver


class TestScenarioFluency:
    def test_with_methods_return_new_scenarios(self):
        base = Scenario("bert", scale="ci")
        tweaked = (
            base.with_batch_size(64)
            .with_gpu_memory(10 * GB)
            .with_profiling_error(0.1, seed=3)
            .on_policy("deepum")
        )
        assert base.batch_size is None and base.policy == "g10"
        assert base.patch.is_empty() and base.profiling_error == 0.0
        assert tweaked.batch_size == 64
        assert tweaked.patch.gpu_memory_bytes == 10 * GB
        assert tweaked.profiling_error == 0.1 and tweaked.seed == 3
        assert tweaked.policy == "deepum"

    def test_scenarios_are_hashable_values(self):
        a = Scenario("bert", scale="ci").on_policy("g10")
        b = Scenario("bert", scale="ci").on_policy("g10")
        assert a == b
        assert hash(a) == hash(b)

    def test_fluent_cell_equals_keyword_cell_and_keys_once(self):
        """The setters build the same value as the keywords, so a runner
        computes one cache key for both spellings."""
        fluent = (
            Scenario("vit")
            .at_scale("ci")
            .on_policy("g10_host")
            .with_batch_size(16)
            .with_host_memory(2 * GB)
            .with_ssd_bandwidth(3.2 * GB)
            .with_profiling_error(0.1, seed=4)
        )
        keyword = SweepCell(
            model="vit", policy="g10_host", batch_size=16, scale="ci",
            patch=ConfigPatch(host_memory_bytes=2 * GB, ssd_read_bandwidth=3.2 * GB),
            profiling_error=0.1, seed=4,
        )
        assert fluent == keyword and hash(fluent) == hash(keyword)
        real_key, keyed = SweepCell.cache_key, []

        def recording_key(cell):
            keyed.append(cell)
            return real_key(cell)

        runner = SweepRunner()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SweepCell, "cache_key", recording_key)
            keys = {runner.cache_key(fluent), runner.cache_key(keyword)}
        assert keyed == [fluent]
        assert keys == {keyword.cache_key()}

    def test_resolved_normalizes_names_and_batch(self):
        resolved = Scenario("ResNet-152", policy="Base UVM", scale="ci").resolved()
        assert resolved.model == "resnet152"
        assert resolved.policy == "base_uvm"
        assert resolved.batch_size == 320  # figure 11 default / 4 for CI

    def test_resolved_zeroes_seed_without_noise(self):
        assert Scenario("bert", seed=9).resolved().seed == 0
        assert Scenario("bert", seed=9, profiling_error=0.1).resolved().seed == 9


class TestScenarioValidation:
    def test_negative_profiling_error_rejected(self):
        with pytest.raises(ConfigurationError, match="profiling_error"):
            Scenario("bert", scale="ci", profiling_error=-0.1).resolved()

    def test_negative_profiling_error_rejected_by_run_policy(self, bert_ci_workload):
        # The legacy path used to treat negatives silently as "no noise".
        with pytest.raises(ConfigurationError, match="profiling_error"):
            run_policy(bert_ci_workload, "g10", profiling_error=-0.5)

    def test_error_of_one_or_more_rejected(self):
        with pytest.raises(ConfigurationError, match="profiling_error"):
            Scenario("bert", profiling_error=1.0).resolved()

    def test_nan_profiling_error_rejected(self):
        # NaN used to pass both range checks and simulate without noise.
        with pytest.raises(ConfigurationError, match="profiling_error"):
            Scenario("bert", scale="ci", profiling_error=math.nan).resolved()

    @pytest.mark.parametrize(
        "override",
        [
            lambda s: s.with_ssd_bandwidth(math.inf),
            lambda s: s.with_interconnect_bandwidth(math.nan),
            lambda s: s.with_host_memory(math.nan),
            lambda s: s.with_gpu_memory(math.inf),
        ],
        ids=["ssd-inf", "pcie-nan", "host-nan", "gpu-inf"],
    )
    def test_non_finite_override_rejected(self, override):
        with pytest.raises(ConfigurationError):
            override(Scenario("bert", scale="ci")).run()

    @pytest.mark.parametrize("seed", [-1, 2**32, 1.5])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario("bert", profiling_error=0.1, seed=seed).resolved()

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="scale"):
            Scenario("bert", scale="huge").resolved()

    def test_unknown_model_and_policy_rejected(self):
        with pytest.raises(ModelError):
            Scenario("alexnet").resolved()
        with pytest.raises(ConfigurationError, match="unknown policy"):
            Scenario("bert", policy="lru-ultra").resolved()


class TestSessionExecution:
    def test_run_matches_legacy_free_functions_bit_for_bit(self, bert_ci_workload):
        legacy = run_policy(bert_ci_workload, "g10")
        outcome = Scenario("bert", scale="ci").run()
        assert outcome.result.to_dict() == legacy.to_dict()

    def test_run_with_patch_matches_legacy(self, bert_ci_workload):
        config = bert_ci_workload.config.with_host_memory(0)
        legacy = run_policy(bert_ci_workload, "g10", config=config)
        outcome = Scenario("bert", scale="ci").with_host_memory(0).run()
        assert outcome.result.to_dict() == legacy.to_dict()

    def test_run_with_profiling_error_matches_legacy(self, bert_ci_workload):
        legacy = run_policy(bert_ci_workload, "g10", profiling_error=0.2, seed=5)
        outcome = Scenario("bert", scale="ci").with_profiling_error(0.2, seed=5).run()
        assert outcome.result.to_dict() == legacy.to_dict()

    def test_session_workload_is_memoized_across_sessions(self):
        a = Scenario("bert", scale="ci").resolved()
        b = Scenario("bert", scale="ci").on_policy("base_uvm").resolved()
        workload = build_workload(a.model, a.batch_size, a.scale)
        assert build_workload(b.model, b.batch_size, b.scale) is workload  # the harness memo
        assert workload.config.fingerprint() == a.config().fingerprint()

    def test_failed_run_is_reported_not_raised(self):
        # A 1 MB GPU cannot hold any kernel working set (the paper's
        # footnote-1 regime); the failure is reported, not raised.
        outcome = (
            Scenario("bert", scale="ci")
            .on_policy("flashneuron")
            .with_gpu_memory(1024 * 1024)
            .run()
        )
        assert outcome.failed
        assert outcome.normalized_performance == 0.0


class TestSessionProvenance:
    def test_cache_key_matches_sweep_cell(self):
        scenario = Scenario("bert", scale="ci").with_host_memory(0)
        cell = SweepCell(
            model="bert", policy="g10", scale="ci",
            patch=scenario.patch,
        )
        outcome = scenario.run()
        assert outcome.cache_key == scenario.cache_key() == cell.cache_key()
        assert outcome.config_fingerprint == cell.config().fingerprint()

    def test_runner_execution_is_cached_and_bit_identical(self, tmp_path):
        """A plain, a patched and a noisy cell give one result whether run
        in-process, through a runner (cold and warm) or by a sweep worker."""
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        base = Scenario("bert", scale="ci")
        for scenario in (
            base.on_policy("base_uvm"),
            base.with_host_memory(0),
            base.with_profiling_error(0.1, seed=3),
        ):
            cold = scenario.run(runner=runner)
            warm = scenario.run(runner=runner)
            direct = scenario.run()
            worker = SimulationResult.from_dict(execute_cell(scenario)["result"])
            assert not cold.cached and warm.cached
            assert (
                warm.result.to_dict() == cold.result.to_dict() == direct.result.to_dict()
                == worker.to_dict()
            ), scenario
            assert warm.cache_key == cold.cache_key == direct.cache_key == scenario.cache_key()

    def test_observers_with_runner_rejected(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        with pytest.raises(ConfigurationError, match="observers"):
            Scenario("bert", scale="ci").run(observers=(TraceRecorder(),), runner=runner)

    def test_session_result_summary_carries_provenance(self):
        outcome = Scenario("bert", scale="ci").run()
        summary = outcome.summary()
        assert summary["config_fingerprint"] == outcome.config_fingerprint[:12]
        assert summary["cache_key"] == outcome.cache_key[:12]
        payload = outcome.to_dict()
        assert payload["scenario"]["model"] == "bert"
        assert payload["cache_key"] == outcome.cache_key
        assert payload["policy"]["name"] == "g10"


class TestObservers:
    def test_trace_recorder_sees_every_kernel(self, bert_ci_workload):
        trace = TraceRecorder()
        outcome = Scenario("bert", scale="ci").run(observers=(trace,))
        kernels = bert_ci_workload.graph.num_kernels
        assert trace.count("kernel_start") == kernels
        assert trace.count("kernel_finish") == kernels
        # G10 under memory pressure must move data.
        assert trace.migrations()
        assert outcome.result.traffic.total_bytes > 0

    def test_observer_stall_accounting_matches_result(self, bert_ci_workload):
        trace = TraceRecorder()
        outcome = Scenario("bert", scale="ci").run(observers=(trace,))
        observed_stall = sum(e[2] for e in trace.events if e[0] == "kernel_finish")
        assert observed_stall == pytest.approx(outcome.result.total_stall_time)

    def test_observers_do_not_change_the_result(self, bert_ci_workload):
        plain = Scenario("bert", scale="ci").run()
        observed = Scenario("bert", scale="ci").run(observers=(TraceRecorder(),))
        assert plain.result.to_dict() == observed.result.to_dict()

    def test_add_observer_on_simulator(self, bert_ci_workload):
        from repro.baselines import BaseUVMPolicy

        trace = TraceRecorder()
        sim = ExecutionSimulator(
            bert_ci_workload.graph,
            bert_ci_workload.config,
            BaseUVMPolicy(),
            bert_ci_workload.report,
        )
        sim.add_observer(trace)
        result = sim.run()
        assert trace.count("kernel_start") == len(result.kernel_timings)
        # Base UVM never prefetches: only faults and evictions appear.
        assert not trace.migrations("prefetch")
        assert trace.migrations("fault")

    def test_base_observer_hooks_are_noops(self, tiny_training, paper_cfg):
        from repro.baselines import IdealPolicy

        sim = ExecutionSimulator(
            tiny_training, paper_cfg, IdealPolicy(), observers=(SimObserver(),)
        )
        assert not sim.run().failed


class TestPackageRoot:
    def test_removed_free_function_shims_stay_removed(self):
        for name in ("build_workload", "run_policy", "run_policies", "make_policy",
                     "run_simulation"):
            assert not hasattr(repro, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro._compat")

    def test_removed_grid_execution_modes_stay_removed(self, capsys):
        from repro import errors, experiments
        from repro.cli import main

        for module in ("queue", "backend", "http_queue", "server"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.experiments.{module}")
        for name in ("WorkQueue", "HttpWorkQueue", "QueueServer", "QueueBackend",
                     "warm_cache", "enqueue_report"):
            assert not hasattr(experiments, name)
        assert not hasattr(experiments.ResultCache, "merge_from")
        assert not hasattr(errors, "QueueError")
        for argv in (
            ["queue", "status"],
            ["serve"],
            ["cache", "merge", "shard0"],
            ["report", "--shard-index", "0", "--shard-count", "2"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv
        capsys.readouterr()

    def test_removed_interprocedural_lint_stays_removed(self, capsys):
        """The whole-program lint engine gave way to tests/test_determinism.py
        and tests/test_cli_fuzz.py; ci_config/pcie4_config had no callers."""
        from repro.analysis import lint
        from repro.cli import main

        for module in ("symbols", "callgraph", "dataflow"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.analysis.{module}")
        for name in ("ProjectRule", "lint_project_sources"):
            assert not hasattr(lint, name)
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--project"])
        assert exit_info.value.code == 2
        assert "DET005" not in {rule.code for rule in lint.RULES}
        assert not hasattr(repro, "ci_config")
        assert not hasattr(repro.config, "pcie4_config")

    def test_removed_lint_machinery_stays_removed(self, capsys):
        """``repro lint`` runs its five rules over paths and nothing else: the
        baseline, suppressions, rule registry and output/selection options
        had no caller but their own tests."""
        from repro.analysis import lint
        from repro.cli import main

        for name in ("Baseline", "LINT_REGISTRY", "register_rule", "active_rules",
                     "resolve_codes", "ERROR_CODES"):
            assert not hasattr(lint, name), name
            assert not hasattr(lint.framework, name), name
        assert not hasattr(lint.LintFinding, "fingerprint")
        assert not hasattr(lint.LintFinding, "to_dict")
        assert not (Path(__file__).resolve().parents[1] / "lint-baseline.json").exists()
        for argv in (
            ["lint", "--baseline", "x"],
            ["lint", "--format", "json"],
            ["lint", "--list-rules"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_figure_benchmark_surface_stays_removed(self):
        """The claims table (repro.experiments.claims) replaced the per-figure
        benchmarks, and with them the sweep overrides only they passed."""
        from repro import experiments
        from repro.analysis import lint
        from repro.experiments import reporting

        removed = [
            (experiments.figure15_batch_sweep, {"policies": ("g10",)}),
            (experiments.figure15_spec, {"policies": ("g10",)}),
            (experiments.figure16_host_memory, {"host_memory_gb": (0,)}),
            (experiments.figure17_host_memory_compare, {"host_memory_gb": (0,)}),
            (experiments.figure18_ssd_bandwidth, {"bandwidths_gbs": (6.4,)}),
            (experiments.figure19_profiling_error, {"errors": (0.0,)}),
        ]
        for renderer, kwargs in removed:
            with pytest.raises(TypeError):
                renderer(scale="ci", **kwargs)
        assert not hasattr(reporting, "EXPERIMENT_ALIASES")
        assert not hasattr(lint, "iter_python_files")
        assert not hasattr(lint.framework, "iter_python_files")

    def test_removed_core_bench_stays_removed(self, capsys):
        """perfbench (``perfbench/run.py``) is the one benchmark: ``repro
        bench`` timed warm plan-cache hits, and no deterministic layer reads
        a wall clock for it any more."""
        from dataclasses import fields

        from repro.cli import main
        from repro.sim import PerfCounters

        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.bench")
        assert "phase_seconds" not in {field.name for field in fields(PerfCounters)}
        root = Path(__file__).resolve().parents[1]
        assert not (root / "benchmarks").exists()
        assert not (root / "BENCH_core.json").exists()

    def test_removed_translation_layer_stays_removed(self):
        """The page table keeps each tensor's location and page count, the
        two things a result reads: the virtual address space, extents, TLB
        and the knobs no simulated time read are gone."""
        from dataclasses import fields

        from repro import core, uvm
        from repro.config import SSDConfig, UVMConfig
        from repro.uvm.page_table import UnifiedPageTable

        for module in ("repro.uvm.address_space", "repro.core.extents", "repro.uvm.tlb"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        for name in ("UnifiedAddressSpace", "VirtualRange", "PageTableEntry", "TLB"):
            assert not hasattr(uvm, name), name
        assert not hasattr(core, "Extent")
        for name in ("translate", "physical_extent", "remap_flash_pages", "address_space"):
            assert not hasattr(UnifiedPageTable, name), name
        assert not hasattr(uvm.PageFaultModel, "translation_overhead")
        assert {"tlb_entries", "page_walk_latency"}.isdisjoint(f.name for f in fields(UVMConfig))
        assert "overprovisioning" not in {f.name for f in fields(SSDConfig)}
        assert {"tlb_entries", "page_walk_latency", "overprovisioning"}.isdisjoint(
            (*paper_config().to_dict()["uvm"], *paper_config().to_dict()["ssd"])
        )

    def test_removed_session_layer_stays_removed(self):
        """A scenario is the sweep cell and runs itself: the session layer,
        the custom-base-config fork, the cell/scenario converters and the
        uncalled setters are gone."""
        from repro import api
        from repro.experiments import sweep

        with pytest.raises(ImportError):
            from repro import Session  # noqa: F401
        with pytest.raises(ImportError):
            from repro.api import Session  # noqa: F401, F811
        assert repro.Scenario is api.Scenario is sweep.SweepCell is repro.experiments.SweepCell
        for name in ("session", "cell", "scenario", "describe", "base_config", "with_config",
                     "with_model", "with_seed", "with_patch", "with_policy", "with_scale"):
            assert not hasattr(Scenario, name), name
        assert [field.name for field in dataclasses.fields(Scenario)] == [
            "model", "policy", "batch_size", "scale", "patch", "profiling_error", "seed",
        ]


class TestNumpySeeds:
    def test_numpy_integer_seed_accepted(self, bert_ci_workload):
        np = pytest.importorskip("numpy")
        direct = run_policy(bert_ci_workload, "g10", profiling_error=0.1, seed=np.int64(5))
        via_api = Scenario("bert", scale="ci").with_profiling_error(0.1, seed=np.int64(5)).run()
        assert via_api.result.to_dict() == direct.to_dict()
        # resolution coerces to a plain int so cell/cache serialization stays JSON-safe
        assert type(via_api.scenario.seed) is int
