"""Tests for ``repro lint --project`` — the interprocedural analysis engine.

Covers the three layers separately and together: the symbol table
(cross-module name resolution, re-exports, method resolution), the
conservative call graph (project vs external edges, alias awareness,
constructor typing), and the two project rule families — DET005
(interprocedural determinism taint) and EXC001 (exception contracts) — each
with fire/quiet fixture pairs, call-chain evidence assertions, and
seeded-violation trees driven through the CLI.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.lint import (
    ModuleSource,
    lint_paths,
    lint_project_sources,
    lint_source,
)
from repro.analysis.symbols import SymbolTable
from repro.cli import main as cli_main
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


def project(*sources, **kwargs):
    """Lint dedented (package_path, source) pairs in project mode."""
    return lint_project_sources(
        [(path, textwrap.dedent(text)) for path, text in sources], **kwargs
    )


def codes(findings):
    return [f.rule for f in findings]


def build_table(*sources):
    return SymbolTable.build(
        [
            ModuleSource.parse(
                Path(path), text=textwrap.dedent(text), package_path=path
            )
            for path, text in sources
        ]
    )


class TestSymbolTable:
    def test_function_and_method_ids(self):
        table = build_table(
            (
                "experiments/queue.py",
                """
                class WorkQueue:
                    def lease(self):
                        return 1

                def helper():
                    return 2
                """,
            )
        )
        assert "experiments/queue.py::WorkQueue.lease" in table.functions
        assert "experiments/queue.py::helper" in table.functions
        assert table.functions["experiments/queue.py::WorkQueue.lease"].cls == "WorkQueue"

    def test_resolves_from_import_and_alias(self):
        table = build_table(
            ("errors.py", "class ReproError(Exception):\n    pass\n"),
            (
                "cli.py",
                "from .errors import ReproError as RE\n\ndef f():\n    raise RE()\n",
            ),
        )
        kind, symbol = table.resolve_dotted("RE", "cli.py") or (None, None)
        # un-aliased name: the caller resolves through the alias map first;
        # simulate that by resolving what the alias map yields.
        kind, symbol = table.resolve_dotted(".errors.ReproError", "cli.py")
        assert kind == "class" and symbol.cid == "errors.py::ReproError"

    def test_resolves_reexport_through_init(self):
        table = build_table(
            ("experiments/sweep.py", "class SweepRunner:\n    pass\n"),
            ("experiments/__init__.py", "from .sweep import SweepRunner\n"),
            ("cli.py", "from .experiments import SweepRunner\n"),
        )
        kind, symbol = table.resolve_dotted("experiments.SweepRunner", "cli.py")
        assert kind == "class" and symbol.cid == "experiments/sweep.py::SweepRunner"

    def test_bare_name_binds_to_defining_module_first(self):
        table = build_table(
            (
                "errors.py",
                """
                class ReproError(Exception):
                    pass

                class ConfigurationError(ReproError):
                    pass
                """,
            )
        )
        klass = table.classes["errors.py::ConfigurationError"]
        assert klass.bases == ["errors.py::ReproError"]

    def test_method_resolution_walks_project_bases(self):
        table = build_table(
            (
                "experiments/backend.py",
                """
                class QueueBackend:
                    def enqueue(self):
                        return 0
                """,
            ),
            (
                "experiments/queue.py",
                """
                from .backend import QueueBackend

                class WorkQueue(QueueBackend):
                    pass
                """,
            ),
        )
        queue = table.classes["experiments/queue.py::WorkQueue"]
        method = table.resolve_method(queue, "enqueue")
        assert method is not None
        assert method.fid == "experiments/backend.py::QueueBackend.enqueue"

    def test_attr_types_from_constructor_assignment(self):
        table = build_table(
            ("experiments/queue.py", "class WorkQueue:\n    pass\n"),
            (
                "experiments/server.py",
                """
                from .queue import WorkQueue

                class Server:
                    def __init__(self):
                        self.queue = WorkQueue()
                """,
            ),
        )
        server = table.classes["experiments/server.py::Server"]
        assert server.attr_types == {"queue": "experiments/queue.py::WorkQueue"}


class TestCallGraph:
    def _graph(self, *sources):
        table = build_table(*sources)
        return table, CallGraph.build(table)

    def test_project_edge_through_from_import(self):
        table, graph = self._graph(
            ("experiments/helper.py", "def stamp():\n    return 1\n"),
            (
                "sim/engine.py",
                "from ..experiments.helper import stamp\n\ndef step():\n    return stamp()\n",
            ),
        )
        edges = graph.calls_from("sim/engine.py::step")
        assert [e.callee for e in edges] == ["experiments/helper.py::stamp"]
        assert not edges[0].external
        assert graph.calls_to("experiments/helper.py::stamp") == edges

    def test_external_edge_records_dotted_target(self):
        _, graph = self._graph(
            ("experiments/helper.py", "import time\n\ndef stamp():\n    return time.time()\n"),
        )
        externals = list(graph.external_edges())
        assert [e.callee for e in externals] == ["time.time"]
        assert externals[0].external

    def test_self_method_and_local_constructor_edges(self):
        table, graph = self._graph(
            (
                "experiments/queue.py",
                """
                class WorkQueue:
                    def lease(self):
                        return self._scan()

                    def _scan(self):
                        return 0

                def drive():
                    q = WorkQueue()
                    return q.lease()
                """,
            ),
        )
        lease_edges = graph.calls_from("experiments/queue.py::WorkQueue.lease")
        assert [e.callee for e in lease_edges] == ["experiments/queue.py::WorkQueue._scan"]
        drive_targets = {e.callee for e in graph.calls_from("experiments/queue.py::drive")}
        assert "experiments/queue.py::WorkQueue.lease" in drive_targets

    def test_dynamic_dispatch_produces_no_edge(self):
        _, graph = self._graph(
            (
                "experiments/helper.py",
                "def run(callback):\n    return callback()\n",
            ),
        )
        assert graph.calls_from("experiments/helper.py::run") == []


LAUNDER_HELPER = (
    "experiments/helper.py",
    """
    import time

    def stamp():
        return _inner()

    def _inner():
        return time.time()
    """,
)


class TestDET005InterproceduralTaint:
    def test_fires_on_cross_module_launder_with_chain_evidence(self):
        findings = project(
            (
                "sim/engine.py",
                "from ..experiments.helper import stamp\n\ndef step():\n    return stamp()\n",
            ),
            LAUNDER_HELPER,
        )
        assert codes(findings) == ["DET005"]
        finding = findings[0]
        assert finding.package_path == "sim/engine.py"
        assert "time.time" in finding.message
        assert len(finding.evidence) == 3
        assert finding.evidence[0].startswith("sim/engine.py:4 step ->")
        assert finding.evidence[-1].endswith("time.time()")

    def test_quiet_when_helper_is_pure(self):
        findings = project(
            (
                "sim/engine.py",
                "from ..experiments.helper import stamp\n\ndef step():\n    return stamp()\n",
            ),
            ("experiments/helper.py", "def stamp():\n    return 7\n"),
        )
        assert findings == []

    def test_quiet_when_caller_is_outside_deterministic_layers(self):
        findings = project(
            (
                "experiments/runner.py",
                "from .helper import stamp\n\ndef run():\n    return stamp()\n",
            ),
            LAUNDER_HELPER,
        )
        assert findings == []

    def test_entropy_inside_det_layers_stays_det001_territory(self):
        # A direct call inside sim/ is DET001's finding; DET005 must not
        # double-report it.
        findings = project(
            ("sim/clock.py", "import time\n\ndef tick():\n    return time.time()\n"),
            ("sim/engine.py", "from .clock import tick\n\ndef step():\n    return tick()\n"),
        )
        assert codes(findings) == ["DET001"]

    def test_det001_allowlisted_seed_does_not_taint(self):
        findings = project(
            (
                "sim/engine.py",
                "from .executor import phase_time\n\ndef step():\n    return phase_time()\n",
            ),
            (
                "sim/executor.py",
                "import time\n\ndef phase_time():\n    return time.perf_counter()\n",
            ),
        )
        assert findings == []

    def test_suppressed_seed_does_not_taint(self):
        findings = project(
            (
                "sim/engine.py",
                "from ..experiments.helper import stamp\n\ndef step():\n    return stamp()\n",
            ),
            (
                "experiments/helper.py",
                "import time\n\ndef stamp():\n    return time.time()  # repro-lint: disable=DET005 -- test fixture\n",
            ),
        )
        assert findings == []

    def test_suppression_on_frontier_call_line(self):
        findings = project(
            (
                "sim/engine.py",
                "from ..experiments.helper import stamp\n\ndef step():\n    return stamp()  # repro-lint: disable=DET005 -- test fixture\n",
            ),
            LAUNDER_HELPER,
        )
        assert findings == []

    def test_selecting_det005_without_project_mode_is_an_error(self):
        with pytest.raises(LintError, match="--project"):
            lint_source("x = 1\n", package_path="sim/engine.py", select=["DET005"])


EXC_ERRORS = (
    "errors.py",
    """
    class ReproError(Exception):
        pass

    class ConfigurationError(ReproError):
        pass
    """,
)


class TestEXC001ExceptionContract:
    def test_fires_on_valueerror_escaping_cli_handler_through_helper(self):
        findings = project(
            EXC_ERRORS,
            (
                "bench.py",
                """
                def run(args):
                    if not args:
                        raise ValueError("empty")
                    return 1
                """,
            ),
            (
                "cli.py",
                "from .bench import run\n\ndef _cmd_bench(args):\n    return run(args)\n",
            ),
        )
        assert codes(findings) == ["EXC001"]
        finding = findings[0]
        assert finding.package_path == "cli.py"
        assert "ValueError" in finding.message and "_cmd_bench" in finding.message
        assert finding.evidence[0].startswith("cli.py:")
        assert finding.evidence[-1].endswith("raises ValueError")

    def test_quiet_when_only_repro_errors_escape(self):
        findings = project(
            EXC_ERRORS,
            (
                "cli.py",
                """
                from .errors import ConfigurationError

                def _cmd_bench(args):
                    if not args:
                        raise ConfigurationError("empty")
                    return 0
                """,
            ),
        )
        assert findings == []

    def test_quiet_when_handler_catches_the_leak(self):
        findings = project(
            EXC_ERRORS,
            (
                "bench.py",
                "def run(args):\n    raise ValueError('boom')\n",
            ),
            (
                "cli.py",
                """
                from .bench import run
                from .errors import ConfigurationError

                def _cmd_bench(args):
                    try:
                        return run(args)
                    except ValueError as exc:
                        raise ConfigurationError(str(exc))
                """,
            ),
        )
        assert findings == []

    def test_handler_subtraction_respects_builtin_hierarchy(self):
        # `except LookupError` must catch a propagated KeyError.
        findings = project(
            EXC_ERRORS,
            ("store.py", "def get(d, k):\n    raise KeyError(k)\n"),
            (
                "cli.py",
                """
                from .store import get

                def _cmd_show(args):
                    try:
                        return get({}, args)
                    except LookupError:
                        return 0
                """,
            ),
        )
        assert findings == []

    def test_try_nested_inside_if_still_guards_its_calls(self):
        findings = project(
            EXC_ERRORS,
            ("store.py", "def get(d, k):\n    raise KeyError(k)\n"),
            (
                "cli.py",
                """
                from .store import get

                def _cmd_show(args):
                    if args:
                        try:
                            return get({}, args)
                        except KeyError:
                            return 0
                    return 1
                """,
            ),
        )
        assert findings == []

    def test_control_flow_exceptions_and_non_handlers_are_exempt(self):
        findings = project(
            EXC_ERRORS,
            (
                "cli.py",
                """
                def _cmd_run(args):
                    raise KeyboardInterrupt()

                def _parse(args):
                    raise ValueError("internal")
                """,
            ),
        )
        assert findings == []

    def test_unresolvable_except_clause_is_conservative(self):
        # `except json.JSONDecodeError` cannot be resolved statically; the
        # handler must be treated as catching everything rather than flagging
        # an exception that is in fact caught.
        findings = project(
            EXC_ERRORS,
            ("store.py", "def get(d, k):\n    raise KeyError(k)\n"),
            (
                "cli.py",
                """
                import json

                from .store import get

                def _cmd_show(args):
                    try:
                        return get({}, args)
                    except json.JSONDecodeError:
                        return 0
                """,
            ),
        )
        assert findings == []


class TestProjectCLI:
    def _seeded_tree(self, tmp_path):
        root = tmp_path / "repro"
        (root / "sim").mkdir(parents=True)
        (root / "experiments").mkdir()
        (root / "errors.py").write_text(
            "class ReproError(Exception):\n    pass\n"
        )
        (root / "sim" / "engine.py").write_text(
            "from ..experiments.helper import stamp\n\ndef step():\n    return stamp()\n"
        )
        (root / "experiments" / "helper.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        (root / "cli.py").write_text(
            "def _cmd_run(args):\n    raise ValueError('bad args')\n"
        )
        return root

    def test_seeded_violations_reported_with_evidence_in_json(self, tmp_path, capsys):
        tree = self._seeded_tree(tmp_path)
        assert cli_main(["lint", str(tree), "--project", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        by_rule = {f["rule"]: f for f in payload["findings"]}
        assert {"DET005", "EXC001"} <= set(by_rule)
        assert payload["summary"]["project"] is True
        for rule in ("DET005", "EXC001"):
            assert by_rule[rule]["evidence"], rule
            assert by_rule[rule]["fingerprint"]
        assert any("time.time()" in hop for hop in by_rule["DET005"]["evidence"])
        assert by_rule["EXC001"]["evidence"][-1].endswith("raises ValueError")

    def test_project_rules_inactive_without_flag(self, tmp_path, capsys):
        tree = self._seeded_tree(tmp_path)
        (tree / "experiments" / "helper.py").write_text(
            "def stamp():\n    return 7\n"
        )
        assert cli_main(["lint", str(tree)]) == 0

    def test_selecting_project_rule_without_flag_is_usage_error(self, tmp_path, capsys):
        tree = self._seeded_tree(tmp_path)
        assert cli_main(["lint", str(tree), "--rule", "DET005"]) == 2
        assert "--project" in capsys.readouterr().err

    def test_json_summary_reports_resolved_baseline_path(self, tmp_path, capsys):
        tree = self._seeded_tree(tmp_path)
        # one per-module violation to grandfather (tick is never called, so
        # it seeds no DET005 chain)
        (tree / "sim" / "clock.py").write_text(
            "import time\n\ndef tick():\n    return time.time()\n"
        )
        baseline = tmp_path / "baseline.json"
        assert cli_main(["lint", str(tree), "--update-baseline",
                         "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert cli_main(["lint", str(tree), "--project", "--format", "json",
                         "--baseline", str(baseline)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["baseline"] == str(baseline)
        # the non-project run's findings are grandfathered; the project rules'
        # findings are new
        assert payload["summary"]["baselined"] >= 1
        assert {f["rule"] for f in payload["findings"]} == {"DET005", "EXC001"}

    def test_syntax_error_exits_2_and_blocks_baseline_update(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def broken(:\n")
        assert cli_main(["lint", str(bad.parent)]) == 2
        captured = capsys.readouterr()
        assert "E001" in captured.out
        assert cli_main(["lint", str(bad.parent), "--update-baseline"]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_missing_path_exits_2_with_structured_error(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "nope"), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert [e["rule"] for e in payload["errors"]] == ["E002"]
        assert payload["summary"]["errors"] == 1


class TestProjectSelfClean:
    """The acceptance gate: src/repro passes its own interprocedural rules."""

    def test_src_repro_is_project_clean_with_empty_baseline(self):
        findings = lint_paths([PACKAGE_DIR], project=True)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_project_run_is_clean(self, capsys):
        assert cli_main(["lint", str(PACKAGE_DIR), "--project"]) == 0
