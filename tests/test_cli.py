"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import ResultCache
from repro.experiments import sweep as sweep_module

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestFigureCommand:
    def test_figure11_ci_and_cache_hit(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ("figure", "11", "--scale", "ci", "--models", "bert", "--cache-dir", cache_dir)
        assert run_cli(*args) == 0
        cold = capsys.readouterr()
        results = json.loads(cold.out)
        assert 0.0 < results["bert"]["g10"] <= 1.0
        assert results["bert"]["g10"] > results["bert"]["base_uvm"]
        assert "6 executed" in cold.err

        # Second invocation is served entirely from the on-disk cache and
        # produces bit-identical output.
        assert run_cli(*args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "6 cached, 0 executed" in warm.err

    def test_parallel_matches_serial(self, tmp_path, capsys):
        base = ("figure", "12", "--scale", "ci", "--models", "bert", "--no-cache")
        assert run_cli(*base) == 0
        serial = capsys.readouterr().out
        assert run_cli(*base, "--jobs", "2") == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_output_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "fig19.json"
        assert run_cli(
            "figure", "19", "--scale", "ci", "--models", "bert",
            "--no-cache", "--output", str(artifact),
        ) == 0
        capsys.readouterr()
        results = json.loads(artifact.read_text())
        assert results["bert"]["0.2"] > 0.9

    def test_table_commands(self, capsys, tmp_path):
        assert run_cli("figure", "table1", "--scale", "ci",
                       "--cache-dir", str(tmp_path / "c")) == 0
        out = capsys.readouterr().out
        assert "BERT" in out and "SENet154" in out
        assert run_cli("figure", "table2", "--no-cache") == 0
        out = capsys.readouterr().out
        assert "40 GB HBM2e" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("figure", "99")


class TestRunCommand:
    def test_run_single_cell(self, tmp_path, capsys):
        artifact = tmp_path / "run.json"
        assert run_cli(
            "run", "--model", "bert", "--policy", "g10", "--scale", "ci",
            "--cache-dir", str(tmp_path / "c"), "--output", str(artifact),
        ) == 0
        out = capsys.readouterr().out
        assert "normalized_performance" in out
        payload = json.loads(artifact.read_text())
        assert payload["cell"]["model"] == "bert"
        assert not payload["result"]["failed"]


class TestRunTenantsCommand:
    def test_colocated_run_reports_slo_table_and_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "tenants.json"
        assert run_cli(
            "run", "--model", "bert", "--scale", "ci",
            "--tenants", "2", "--tenant-policies", "g10,base_uvm",
            "--arrival-load", "1.0", "--requests", "2",
            "--cache-dir", str(tmp_path / "c"), "--output", str(artifact),
        ) == 0
        captured = capsys.readouterr()
        assert "p99_latency_s" in captured.out
        assert "t0-g10" in captured.out and "t1-base_uvm" in captured.out
        assert "fairness (Jain)" in captured.err
        payload = json.loads(artifact.read_text())
        assert set(payload["tenants"]) == {"t0-g10", "t1-base_uvm"}
        assert 0.0 < payload["fairness"] <= 1.0
        assert payload["tenants"]["t0-g10"]["policy"] == "g10"
        assert len(payload["tenants"]["t0-g10"]["latencies"]) == 2

    def test_tenants_must_be_positive(self, tmp_path):
        assert run_cli(
            "run", "--model", "bert", "--scale", "ci", "--tenants", "0",
            "--no-cache",
        ) == 2  # ConfigurationError exit path

    def test_tenant_count_is_bounded(self, capsys):
        from repro.experiments.tenancy import MAX_TENANTS

        assert run_cli(
            "run", "--model", "bert", "--scale", "ci", "--tenants", str(MAX_TENANTS + 1),
            "--no-cache",
        ) == 2
        assert f"--tenants must be in [1, {MAX_TENANTS}]" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_sweep(self, tmp_path, capsys):
        artifact = tmp_path / "sweep.json"
        assert run_cli(
            "sweep", "--models", "bert", "--policies", "g10,base_uvm",
            "--scale", "ci", "--cache-dir", str(tmp_path / "c"), "--output", str(artifact),
        ) == 0
        rows = json.loads(artifact.read_text())
        assert [row["cell"]["policy"] for row in rows] == ["g10", "base_uvm"]

    def test_negative_jobs_rejected(self, capsys):
        assert run_cli(
            "sweep", "--models", "bert", "--policies", "g10", "--scale", "ci",
            "--jobs", "-2", "--no-cache",
        ) == 2
        assert "jobs must be >= 0" in capsys.readouterr().err


class TestJobsOption:
    @pytest.mark.parametrize("command", ["run", "figure", "report"])
    def test_negative_jobs_exits_2_before_running(self, tmp_path, capsys, command):
        argv = {
            "run": ["run", "--model", "bert"],
            "figure": ["figure", "11", "--models", "bert"],
            "report": ["report", "--figures", "2", "--output-dir", str(tmp_path / "r")],
        }[command]
        cache_dir = tmp_path / "c"
        assert run_cli(*argv, "--scale", "ci", "--jobs", "-1", "--cache-dir", str(cache_dir)) == 2
        assert "jobs must be >= 0" in capsys.readouterr().err
        assert not cache_dir.exists()
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("jobs", ["0", "1"])
    def test_zero_and_one_run_in_process(self, monkeypatch, capsys, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError(f"--jobs {jobs} started a process pool")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_pool)
        assert run_cli(
            "sweep", "--models", "bert", "--policies", "g10,base_uvm", "--scale", "ci",
            "--jobs", jobs, "--no-cache",
        ) == 0
        assert "2 executed), jobs=1," in capsys.readouterr().err


class TestResumeCommands:
    def test_figure_resume_from_warm_cache_matches_serial(self, tmp_path, capsys):
        base = ("figure", "11", "--scale", "ci", "--models", "bert")
        assert run_cli(*base, "--no-cache") == 0
        serial = capsys.readouterr().out

        cache_dir = str(tmp_path / "c")
        assert run_cli(*base, "--cache-dir", cache_dir, "--jobs", "2") == 0
        capsys.readouterr()

        assert run_cli(*base, "--cache-dir", cache_dir, "--resume") == 0
        resumed = capsys.readouterr()
        assert resumed.out == serial  # bit-identical to the cold serial run
        assert "6 warm, 0 to execute" in resumed.err
        assert "6 cached, 0 executed" in resumed.err

    def test_resume_requires_cache(self, capsys):
        assert run_cli(
            "figure", "11", "--scale", "ci", "--models", "bert",
            "--no-cache", "--resume",
        ) == 2
        assert "requires the result cache" in capsys.readouterr().err

    def test_report_resume_prints_the_plan(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert run_cli("report", "--scale", "ci", "--figures", "2",
                       "--cache-dir", cache_dir,
                       "--output-dir", str(tmp_path / "r1")) == 0
        capsys.readouterr()
        assert run_cli("report", "--scale", "ci", "--figures", "2",
                       "--cache-dir", cache_dir, "--resume",
                       "--output-dir", str(tmp_path / "r2")) == 0
        assert "4 warm, 0 to execute" in capsys.readouterr().err


class TestReportCommand:
    def test_report_renders_artifacts_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert run_cli(
            "report", "--scale", "ci", "--figures", "2,table2",
            "--cache-dir", str(tmp_path / "c"), "--output-dir", str(out_dir),
        ) == 0
        captured = capsys.readouterr()
        assert "2 artifacts" in captured.err
        # The Claims table goes to stdout, one line per Figure 2 row.
        assert [line.split()[0] for line in captured.out.splitlines()[2:]] == [
            row["id"] for row in json.loads((out_dir / "report.json").read_text())["claims"]
        ]
        assert (out_dir / "figure2.json").exists()
        assert (out_dir / "table2.json").exists()
        manifest = json.loads((out_dir / "report.json").read_text())
        assert manifest["totals"]["warm"] == 0
        assert "Figure 2" in (out_dir / "report.md").read_text()

    def test_report_jobs_then_expect_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert run_cli(
            "report", "--scale", "ci", "--figures", "2", "--cache-dir", cache_dir,
            "--jobs", "2", "--output-dir", str(tmp_path / "cold"),
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "report", "--scale", "ci", "--figures", "2", "--cache-dir", cache_dir,
            "--output-dir", str(tmp_path / "report"), "--expect-warm",
        ) == 0
        assert "4 warm, 0 recomputed" in capsys.readouterr().err
        cold, warm = tmp_path / "cold" / "figure2.json", tmp_path / "report" / "figure2.json"
        assert warm.read_bytes() == cold.read_bytes()

    def test_expect_warm_cold_cache_fails(self, tmp_path, capsys):
        assert run_cli(
            "report", "--scale", "ci", "--figures", "2",
            "--cache-dir", str(tmp_path / "cold"),
            "--output-dir", str(tmp_path / "report"), "--expect-warm",
        ) == 2
        assert "recomputed" in capsys.readouterr().err


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        run_cli("run", "--model", "bert", "--scale", "ci", "--cache-dir", cache_dir)
        capsys.readouterr()
        assert run_cli("cache", "info", "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert "stale tmp  : 0" in out
        assert run_cli("cache", "clear", "--cache-dir", cache_dir) == 0
        assert "removed 1" in capsys.readouterr().out
        assert run_cli("cache", "path", "--cache-dir", cache_dir) == 0
        assert cache_dir in capsys.readouterr().out

    def test_stray_positional_is_rejected_without_clearing(self, tmp_path, capsys):
        """`cache clear shard0` must not silently clear the cache."""
        cache = ResultCache(tmp_path / "c")
        cache.put("ab12", {"v": 1})
        with pytest.raises(SystemExit) as exit_info:
            run_cli("cache", "clear", "shard0", "--cache-dir", str(cache.root))
        assert exit_info.value.code == 2
        assert "shard0" in capsys.readouterr().err
        assert cache.get("ab12") == {"v": 1}

    @pytest.mark.parametrize("symlinked", [False, True])
    def test_clear_leaves_unrelated_files_in_place(self, tmp_path, capsys, symlinked):
        """`cache clear` once removed the whole --cache-dir, and raised an
        OSError traceback when it was a symbolic link."""
        real = tmp_path / "real"
        (real / "notes").mkdir(parents=True)
        (real / "README").write_text("keep me")
        (real / "notes" / "important.txt").write_text("keep me too")
        ResultCache(real).put("ab12", {"v": 1})
        cache_dir = tmp_path / "link" if symlinked else real
        if symlinked:
            cache_dir.symlink_to(real, target_is_directory=True)
        assert run_cli("cache", "clear", "--cache-dir", str(cache_dir)) == 0
        assert "removed 1 cached results" in capsys.readouterr().out
        assert sorted(p.relative_to(real).as_posix() for p in real.rglob("*")) == [
            "README", "notes", "notes/important.txt",
        ]
        assert cache_dir.is_symlink() is symlinked

    def test_clear_with_the_working_directory_as_cache_keeps_it(
        self, tmp_path, monkeypatch, capsys
    ):
        """`REPRO_CACHE_DIR=. repro cache clear` once deleted the working
        directory and everything in it."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", ".")
        (tmp_path / "notes.txt").write_text("keep me")
        ResultCache().put("ab12", {"v": 1})
        assert run_cli("cache", "info") == 0
        assert "entries    : 1" in capsys.readouterr().out
        assert run_cli("cache", "clear") == 0
        assert "removed 1 cached results" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


def exit_code(argv: list[str]) -> int:
    """``main(argv)``, with an argparse usage error mapped to its exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


#: Calls that once crashed with a traceback or accepted a malformed value.
#: ``{file}`` is a regular file, ``{dir}`` a directory, ``{missing}`` a path
#: under a missing directory and ``{huge}`` an integer too large for a float.
#: The ``bench`` rows call the retired ``repro bench`` as scripts once did,
#: with ``{bench}`` a regular file standing in for its saved payload.
MALFORMED_CALLS = [
    "run --model bert --no-cache --host-memory-gb nan",
    "run --model bert --no-cache --host-memory-gb inf",
    "run --model bert --no-cache --host-memory-gb 1e300",
    "run --model bert --no-cache --error nan",
    "run --model bert --no-cache --ssd-bandwidth-gbs inf",
    "run --model bert --no-cache --tenants 1 --arrival-load=inf",
    "run --model bert --no-cache --output {missing}",
    "run --model bert --no-cache --tenants 1 --requests 1 --output {missing}",
    "run --model bert --cache-dir /dev/null",
    "figure 11 --models bert --no-cache --output {missing}",
    "figure 11 --models bert --cache-dir /dev/null",
    "figure 11 --models= --no-cache",
    "run --model bert --no-cache --batch={huge}",
    "run --model bert --no-cache --tenants {huge}",
    "run --model bert --no-cache --tenants 1 --requests {huge}",
    "sweep --models bert --policies g10 --no-cache --batches abc",
    "sweep --models bert --policies g10 --no-cache --batches 1,{huge}",
    "sweep --models bert --policies g10 --no-cache --errors abc",
    "sweep --models bert --policies g10 --no-cache --errors nan",
    "sweep --models bert --policies g10 --no-cache --output {missing}",
    "report --figures 2 --no-cache --output-dir /dev/null/x",
    "report --figures= --no-cache",
    "cache info --cache-dir {file}",
    "cache clear --cache-dir {file}",
    "bench --from {bench} --output {missing}",
    "bench --from {bench} --check {bench} --threshold=nan",
    "lint {file} --baseline {dir}",
    "lint {file} --update-baseline --baseline {missing}",
    "lint {missing}",
]


class TestMalformedInput:
    """Each call exits 2 with one ``error:`` line on stderr and no traceback."""

    @pytest.mark.parametrize("template", MALFORMED_CALLS)
    def test_exits_2_with_one_error_line(self, template, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        plain = tmp_path / "plain.py"
        plain.write_text("x = 1\n")
        argv = template.format(
            file=plain, dir=tmp_path, missing=tmp_path / "missing" / "x.json", bench=plain,
            huge=10**400,
        ).split()
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error:" in err.strip().splitlines()[-1]
        assert not (tmp_path / "missing").exists()

    def test_cache_clear_leaves_a_regular_file_alone(self, tmp_path, capsys):
        target = tmp_path / "results"
        target.write_text("not a cache")
        assert exit_code(["cache", "clear", "--cache-dir", str(target)]) == 2
        assert target.read_text() == "not a cache"
        capsys.readouterr()


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        """The acceptance-criteria invocation, end to end in a fresh process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "figure", "11", "--scale", "ci",
             "--models", "bert", "--jobs", "2"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert results["bert"]["g10"] > results["bert"]["base_uvm"]
        # The default cache landed in the working directory.
        assert (tmp_path / ".repro_cache").is_dir()


class TestRegistryListings:
    def test_list_policies(self, capsys):
        assert run_cli("run", "--list-policies") == 0
        out = capsys.readouterr().out
        for name in ("ideal", "base_uvm", "deepum", "flashneuron",
                     "g10", "g10_gds", "g10_host"):
            assert name in out
        assert "G10-GDS" in out  # display labels shown alongside keys

    def test_list_models(self, capsys):
        assert run_cli("run", "--list-models") == 0
        out = capsys.readouterr().out
        for name in ("bert", "vit", "inceptionv3", "resnet152", "senet154"):
            assert name in out
        assert "Hugging Face / CoLA" in out

    def test_run_without_model_or_listing_is_an_error(self, capsys):
        assert run_cli("run") == 2
        assert "--model" in capsys.readouterr().err

    def test_paper_style_policy_label_accepted(self, capsys):
        # "G10+Host" used to normalize to "g10host" and be rejected.
        assert run_cli("run", "--model", "bert", "--policy", "G10+Host",
                       "--scale", "ci", "--no-cache") == 0
        assert "G10-Host" in capsys.readouterr().out

    def test_plugins_flag_experiment_selectable_as_figure(self, tmp_path, capsys, monkeypatch):
        """--plugins loads before the parser, so plugin experiment ids parse."""
        plugin = tmp_path / "cli_exp_plugin.py"
        plugin.write_text(
            "from repro import register_experiment\n"
            "@register_experiment(id='plugin_exp', title='Plugin experiment',\n"
            "                     replace=True)\n"
            "def render(scale='ci', runner=None):\n"
            "    return {'scale': scale}\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "")  # restored after the test
        from repro.registry import EXPERIMENT_REGISTRY
        try:
            assert run_cli("figure", "plugin_exp", "--scale", "ci", "--no-cache",
                           "--plugins", "cli_exp_plugin") == 0
            assert json.loads(capsys.readouterr().out) == {"scale": "ci"}
        finally:
            EXPERIMENT_REGISTRY.unregister("plugin_exp")

    def test_plugins_flag_registers_policy(self, tmp_path, capsys, monkeypatch):
        plugin = tmp_path / "cli_test_plugin.py"
        plugin.write_text(
            "from repro import register_policy\n"
            "from repro.baselines import BaseUVMPolicy\n"
            "@register_policy('cli_plugin_policy', replace=True)\n"
            "class CliPluginPolicy(BaseUVMPolicy):\n"
            "    name = 'CLI Plugin Policy'\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "")  # restored after the test
        from repro.registry import POLICY_REGISTRY
        try:
            assert run_cli(
                "run", "--model", "bert", "--policy", "cli_plugin_policy",
                "--scale", "ci", "--no-cache", "--plugins", "cli_test_plugin",
            ) == 0
            assert "CLI Plugin Policy" in capsys.readouterr().out
        finally:
            POLICY_REGISTRY.unregister("cli_plugin_policy")
