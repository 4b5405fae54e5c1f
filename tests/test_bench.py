"""The core-simulator benchmark harness and the ``repro bench`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    CORE_CELLS,
    HEADLINE_CELL,
    PRE_REFACTOR_SECONDS,
    QUICK_TIERS,
    bench_cells,
    check_regressions,
    plan_cache_summary,
    profile_rows,
    run_bench,
    time_cell,
    validate_payload,
    write_bench,
)
from repro.cli import main
from repro.errors import ConfigurationError


class TestBenchEngine:
    def test_quick_subset_keeps_only_smoke_tiers(self):
        quick = bench_cells(quick=True)
        assert quick and all(cell.tier in QUICK_TIERS for cell in quick)
        assert len(bench_cells(quick=False)) == len(CORE_CELLS) > len(quick)

    def test_every_cell_has_a_recorded_pre_refactor_baseline(self):
        assert {cell.name for cell in CORE_CELLS} == set(PRE_REFACTOR_SECONDS)
        assert HEADLINE_CELL in PRE_REFACTOR_SECONDS

    def test_time_cell_records_timing_and_perf(self):
        cell = next(c for c in CORE_CELLS if c.name == "bert@default/ci/g10")
        record = time_cell(cell, repeats=1)
        assert record["seconds"] > 0
        assert len(record["samples"]) == 1
        assert record["perf"]["kernels_executed"] > 0
        assert record["pre_refactor_seconds"] == PRE_REFACTOR_SECONDS[cell.name]
        assert record["speedup_vs_pre_refactor"] == pytest.approx(
            record["pre_refactor_seconds"] / record["seconds"]
        )
        assert set(record["phase_seconds"]) == {"plan", "execute"}
        # Warm-up + timed repeats: at most one planning miss per cell; the
        # timed runs replay from the plan-fragment cache.
        assert set(record["plan_cache"]) == {"full_hits", "fragment_hits", "misses"}
        assert record["plan_cache"]["full_hits"] >= 1

    def test_repeats_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            time_cell(CORE_CELLS[0], repeats=0)

    def test_check_regressions_flags_only_slow_cells(self):
        baseline = {"cells": {"a": {"seconds": 1.0}, "b": {"seconds": 1.0}}}
        current = {"cells": {"a": {"seconds": 2.5}, "b": {"seconds": 1.1}, "new": {"seconds": 9.0}}}
        messages = check_regressions(current, baseline, threshold=2.0)
        assert len(messages) == 1 and messages[0].startswith("a:")
        assert check_regressions(baseline, baseline) == []
        with pytest.raises(ConfigurationError):
            check_regressions(current, baseline, threshold=1.0)
        # NaN compares false against every ratio and would pass every cell.
        with pytest.raises(ConfigurationError):
            check_regressions(current, baseline, threshold=float("nan"))

    def test_write_bench_to_an_unwritable_path_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot write bench payload"):
            write_bench({"cells": {}}, tmp_path / "missing" / "bench.json")

    def test_cells_under_the_noise_floor_never_gate(self):
        baseline = {"cells": {"tiny": {"seconds": 0.004}, "big": {"seconds": 1.0}}}
        current = {"cells": {"tiny": {"seconds": 0.1}, "big": {"seconds": 5.0}}}
        messages = check_regressions(current, baseline, threshold=2.0)
        assert len(messages) == 1 and messages[0].startswith("big:")
        # An explicit floor of 0 gates everything.
        assert len(check_regressions(current, baseline, min_seconds=0.0)) == 2

    def test_regression_message_names_the_slowest_growing_phase(self):
        baseline = {"cells": {"a": {
            "seconds": 1.0, "phase_seconds": {"plan": 0.5, "execute": 0.5},
        }}}
        current = {"cells": {"a": {
            "seconds": 3.0, "phase_seconds": {"plan": 0.6, "execute": 2.4},
        }}}
        (message,) = check_regressions(current, baseline, threshold=2.0)
        assert "slowest-growing phase: execute" in message
        assert "0.5000s" in message and "2.4000s" in message

    def test_regression_message_degrades_without_phase_data(self):
        """Payloads written before per-phase recording still gate cleanly."""
        baseline = {"cells": {"a": {"seconds": 1.0}}}
        current = {"cells": {"a": {"seconds": 3.0}}}
        (message,) = check_regressions(current, baseline, threshold=2.0)
        assert "slowest-growing phase" not in message

    def test_validate_payload_names_file_cell_and_field(self):
        good = {"cells": {"a": {
            "tier": "small", "seconds": 1.0, "samples": [1.0],
            "perf": {}, "phase_seconds": {},
        }}}
        assert validate_payload(good, "good.json") is good
        for missing in ("phase_seconds", "samples"):
            truncated = {"cells": {"a": {
                key: value for key, value in good["cells"]["a"].items()
                if key != missing
            }}}
            with pytest.raises(ConfigurationError) as err:
                validate_payload(truncated, "bad.json")
            assert "bad.json" in str(err.value)
            assert "'a'" in str(err.value)
            assert repr(missing) in str(err.value)
        with pytest.raises(ConfigurationError):
            validate_payload({}, "empty.json")
        with pytest.raises(ConfigurationError):
            validate_payload({"cells": {"a": 7}}, "scalar.json")

    def test_plan_cache_summary_aggregates_cells(self):
        payload = {"cells": {
            "a": {"plan_cache": {"full_hits": 3, "fragment_hits": 0, "misses": 1}},
            "b": {"plan_cache": {"full_hits": 1, "fragment_hits": 2, "misses": 1}},
            "old": {},  # pre-plan-cache payload contributes nothing
        }}
        assert plan_cache_summary(payload) == {
            "full_hits": 4, "fragment_hits": 2, "misses": 2,
        }
        assert plan_cache_summary({"cells": {}}) == {
            "full_hits": 0, "fragment_hits": 0, "misses": 0,
        }

    def test_profile_rows_break_each_cell_into_phases(self):
        payload = {"cells": {
            "a": {"seconds": 1.0, "phase_seconds": {"plan": 0.25, "execute": 0.75}},
            "old": {"seconds": 1.0},  # pre-phase payload: contributes no rows
        }}
        rows = profile_rows(payload)
        assert [(r["cell"], r["phase"]) for r in rows] == [
            ("a", "execute"), ("a", "plan"),
        ]
        by_phase = {r["phase"]: r for r in rows}
        assert by_phase["plan"]["share"] == pytest.approx(0.25)
        assert by_phase["execute"]["share"] == pytest.approx(0.75)
        assert profile_rows({"cells": {}}) == []


class TestBenchCli:
    def test_quick_run_writes_artifact(self, tmp_path, capsys):
        output = tmp_path / "BENCH_core.json"
        assert main(["bench", "--quick", "--repeats", "1", "--output", str(output)]) == 0
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["quick"] is True
        assert set(payload["cells"]) == {cell.name for cell in bench_cells(quick=True)}
        assert "pre_refactor_seconds" in payload
        table = capsys.readouterr().out
        assert "speedup" in table and "pages_moved" in table

    def test_check_gate_fails_on_regression(self, tmp_path):
        current = run_bench(quick=True, repeats=1)
        healthy = tmp_path / "healthy.json"
        write_bench(current, healthy)
        # The plan cache pushed every quick cell under the 50 ms noise floor,
        # so a doctored *baseline* can no longer trip the gate against a real
        # run; instead doctor a slow *current* payload (10 s cells) against an
        # above-floor baseline (0.1 s cells).
        baseline = {
            **current,
            "cells": {
                name: {**record, "seconds": 0.1}
                for name, record in current["cells"].items()
            },
        }
        slow = {
            **current,
            "cells": {
                name: {**record, "seconds": 10.0}
                for name, record in current["cells"].items()
            },
        }
        baseline_path = tmp_path / "baseline.json"
        slow_path = tmp_path / "slow.json"
        write_bench(baseline, baseline_path)
        write_bench(slow, slow_path)

        output = tmp_path / "out.json"
        assert main([
            "bench", "--quick", "--repeats", "1",
            "--output", str(output), "--check", str(healthy), "--threshold", "50",
        ]) == 0
        assert main([
            "bench", "--from", str(slow_path),
            "--check", str(baseline_path), "--threshold", "1.01",
        ]) == 1

    def test_missing_baseline_is_a_configuration_error(self, tmp_path):
        code = main([
            "bench", "--quick", "--repeats", "1",
            "--output", str(tmp_path / "o.json"),
            "--check", str(tmp_path / "missing.json"),
        ])
        assert code == 2  # ReproError exit path

    def test_from_reports_a_saved_payload_without_retiming(self, tmp_path, capsys):
        saved = tmp_path / "saved.json"
        write_bench(run_bench(quick=True, repeats=1), saved)
        before = saved.read_text(encoding="utf-8")

        assert main(["bench", "--from", str(saved), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "pages_moved" in out          # the summary table
        assert "share" in out and "plan" in out  # the per-phase breakdown
        # Report-only mode: nothing is rewritten, and no default artifact
        # appears in the working directory.
        assert saved.read_text(encoding="utf-8") == before

    def test_from_with_check_gates_without_measuring(self, tmp_path):
        """The CI cross-PR diff: measure once, then diff two payloads."""
        current = run_bench(quick=True, repeats=1)
        measured = tmp_path / "measured.json"
        write_bench(current, measured)
        # Regression = a slow current payload vs an above-noise-floor
        # baseline; both are diffed without re-measuring anything.
        baseline = {
            **current,
            "cells": {
                name: {**record, "seconds": 0.1}
                for name, record in current["cells"].items()
            },
        }
        slow = {
            **current,
            "cells": {
                name: {**record, "seconds": 10.0}
                for name, record in current["cells"].items()
            },
        }
        baseline_path = tmp_path / "baseline.json"
        slow_path = tmp_path / "slow.json"
        write_bench(baseline, baseline_path)
        write_bench(slow, slow_path)

        assert main(["bench", "--from", str(measured),
                     "--check", str(measured), "--threshold", "50"]) == 0
        assert main(["bench", "--from", str(slow_path),
                     "--check", str(baseline_path), "--threshold", "1.01"]) == 1

    def test_from_missing_payload_is_a_configuration_error(self, tmp_path):
        assert main(["bench", "--from", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("missing", ["phase_seconds", "samples"])
    def test_from_truncated_payload_is_a_configuration_error(
        self, tmp_path, capsys, missing
    ):
        """A saved payload lacking a required cell field must surface as a
        structured ConfigurationError naming the field, not a KeyError."""
        payload = run_bench(quick=True, repeats=1)
        for record in payload["cells"].values():
            record.pop(missing, None)
        truncated = tmp_path / "truncated.json"
        write_bench(payload, truncated)

        assert main(["bench", "--from", str(truncated)]) == 2
        err = capsys.readouterr().err
        assert repr(missing) in err
        assert str(truncated) in err

    def test_from_profile_reports_plan_cache_counters(self, tmp_path, capsys):
        saved = tmp_path / "saved.json"
        write_bench(run_bench(quick=True, repeats=1), saved)
        assert main(["bench", "--from", str(saved), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "plan cache:" in out
        assert "hit rate" in out


def test_committed_bench_artifact_tracks_the_headline_cell():
    """BENCH_core.json at the repo root is the recorded perf trajectory."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "BENCH_core.json"
    assert path.exists(), "BENCH_core.json must be committed at the repo root"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["headline"]["cell"] == HEADLINE_CELL
    # The acceptance criterion of the vectorized-planning refactor: >= 4x on
    # the paper-scale batch-sweep cell, recorded for posterity (the earlier
    # extent refactor's bar was 3x).
    assert payload["headline"]["speedup_vs_pre_refactor"] >= 4.0
