"""Tests for ``repro lint`` — the determinism static analyzer.

Each rule gets fixture-snippet pairs: a minimal violation that must fire and
the compliant idiom that must stay quiet. On top of that: inline
suppressions, the baseline grandfather file, the CLI surface (formats, rule
selection, exit codes), registry integration, and the acceptance gate that
``src/repro`` lints clean with an empty baseline.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    LINT_REGISTRY,
    Baseline,
    LintRule,
    lint_paths,
    lint_source,
    package_path_of,
    register_rule,
)
from repro.cli import main as cli_main
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


def codes(findings):
    return [f.rule for f in findings]


def lint_snippet(source: str, package_path: str, **kwargs):
    return lint_source(textwrap.dedent(source), package_path=package_path, **kwargs)


class TestDET001Entropy:
    @pytest.mark.parametrize(
        "call",
        [
            "time.time()",
            "time.perf_counter()",
            "datetime.datetime.now()",
            "random.random()",
            "random.shuffle(items)",
            "uuid.uuid4()",
            "os.urandom(8)",
            "np.random.rand(3)",
        ],
    )
    def test_fires_on_entropy_in_deterministic_layer(self, call):
        source = f"""
            import datetime, os, random, time, uuid
            import numpy as np

            def tick(items):
                return {call}
        """
        assert codes(lint_snippet(source, "sim/engine.py")) == ["DET001"]

    def test_resolves_import_aliases(self):
        source = """
            import time as _time

            def phase():
                return _time.time()
        """
        assert codes(lint_snippet(source, "core/scheduler.py")) == ["DET001"]

    def test_from_import_resolved(self):
        source = """
            from time import time

            def now():
                return time()
        """
        assert codes(lint_snippet(source, "uvm/fault.py")) == ["DET001"]

    def test_from_import_with_rename_resolved(self):
        source = """
            from time import time as now

            def stamp():
                return now()
        """
        assert codes(lint_snippet(source, "uvm/fault.py")) == ["DET001"]

    @pytest.mark.parametrize(
        "module, call",
        [("time", "monotonic()"), ("random", "shuffle(items)"), ("os", "urandom(8)")],
    )
    def test_star_import_resolved(self, module, call):
        source = f"""
            from {module} import *

            def tick(items):
                return {call}
        """
        assert codes(lint_snippet(source, "ssd/wear.py")) == ["DET001"]

    def test_star_import_quiet_outside_deterministic_layers(self):
        source = """
            from time import *

            def tick():
                return monotonic()
        """
        assert lint_snippet(source, "experiments/cache.py") == []

    def test_captured_reference_fires_without_a_call(self):
        source = """
            import time

            def make_clock():
                return time.time
        """
        findings = lint_snippet(source, "sim/engine.py")
        assert codes(findings) == ["DET001"]
        assert "captured without a call" in findings[0].message

    def test_captured_from_import_reference_fires(self):
        source = """
            from time import time as now

            def wire(executor):
                executor.clock = now
        """
        assert codes(lint_snippet(source, "core/scheduler.py")) == ["DET001"]

    def test_call_reports_once_not_as_call_plus_reference(self):
        source = """
            import time

            def tick():
                return time.time()
        """
        assert codes(lint_snippet(source, "sim/engine.py")) == ["DET001"]

    def test_captured_allowlisted_reference_is_quiet(self):
        source = """
            import time

            def wire():
                return time.perf_counter
        """
        assert lint_snippet(source, "sim/executor.py") == []

    def test_quiet_outside_deterministic_layers(self):
        source = """
            import time

            def stamp():
                return time.time()
        """
        assert lint_snippet(source, "experiments/cache.py") == []

    def test_quiet_on_seeded_generators(self):
        source = """
            import random

            def noise(seed):
                return random.Random(seed).random()
        """
        assert lint_snippet(source, "sim/engine.py") == []

    def test_perf_counter_allowlisted_in_executor_only(self):
        source = """
            import time

            def measure():
                return time.perf_counter()
        """
        assert lint_snippet(source, "sim/executor.py") == []
        assert codes(lint_snippet(source, "sim/engine.py")) == ["DET001"]


class TestDET002IdKeys:
    def test_fires_on_dict_comprehension_key(self):
        source = """
            def memo(items):
                return {id(item): item for item in items}
        """
        assert codes(lint_snippet(source, "core/prefetch.py")) == ["DET002"]

    def test_fires_on_subscript_and_get(self):
        source = """
            def lookup(cache, obj, table):
                cache[id(obj)] = obj
                return table.get(id(obj))
        """
        assert codes(lint_snippet(source, "experiments/harness.py")) == ["DET002", "DET002"]

    def test_fires_on_membership_probe(self):
        source = """
            def seen(obj, visited):
                return id(obj) in visited
        """
        assert codes(lint_snippet(source, "graph/dataflow.py")) == ["DET002"]

    def test_fires_outside_deterministic_layers_too(self):
        source = """
            def memo(config, cache):
                return cache.setdefault(id(config), config)
        """
        assert codes(lint_snippet(source, "experiments/sweep.py")) == ["DET002"]

    def test_quiet_on_value_keys_and_bare_id(self):
        source = """
            def memo(items):
                by_value = {item: item for item in items}
                trace = id(items)  # not a key position
                return by_value, trace
        """
        assert lint_snippet(source, "core/prefetch.py") == []


class TestDET003SetIteration:
    def test_fires_on_for_over_set_literal(self):
        source = """
            def schedule():
                out = []
                for item in {3, 1, 2}:
                    out.append(item)
                return out
        """
        assert codes(lint_snippet(source, "core/scheduler.py")) == ["DET003"]

    def test_fires_on_tracked_local_set(self):
        source = """
            def collect(tensors):
                pending = set(tensors)
                return [t.size for t in pending]
        """
        assert codes(lint_snippet(source, "sim/executor.py")) == ["DET003"]

    def test_fires_on_list_of_set_union(self):
        source = """
            def merge(a):
                return list(a | {1, 2}) if isinstance(a, frozenset) and a == {0} else list({1} | {2})
        """
        findings = lint_snippet(source, "uvm/memory.py")
        assert "DET003" in codes(findings)

    def test_quiet_on_sorted_and_aggregates(self):
        source = """
            def schedule(tensors):
                pending = set(tensors)
                total = sum(pending)
                largest = max(pending)
                return sorted(pending), total, largest, 3 in pending
        """
        assert lint_snippet(source, "core/scheduler.py") == []

    def test_quiet_on_set_comprehension_over_set(self):
        source = """
            def ids(tensors):
                live = set(tensors)
                return {t.tensor_id for t in live}
        """
        assert lint_snippet(source, "sim/executor.py") == []

    def test_quiet_when_rebound_to_ordered(self):
        source = """
            def drain(tensors):
                pending = set(tensors)
                pending = sorted(pending)
                return [t for t in pending]
        """
        assert lint_snippet(source, "core/eviction.py") == []

    def test_quiet_outside_deterministic_layers(self):
        source = """
            def report(keys):
                return list(set(keys))
        """
        assert lint_snippet(source, "experiments/reporting.py") == []


class TestDET004FloatEquality:
    def test_fires_on_float_literal_equality(self):
        source = """
            def probe(values, j):
                return values[j] == 0.0
        """
        assert codes(lint_snippet(source, "core/bandwidth.py")) == ["DET004"]

    def test_fires_on_unannotated_module_constant(self):
        source = """
            EMPTY = 0.0

            def probe(value):
                return value != EMPTY
        """
        assert codes(lint_snippet(source, "sim/executor.py")) == ["DET004"]

    def test_quiet_on_annotated_sentinel(self):
        source = """
            EXHAUSTED = 0.0  # repro-lint: exact-float

            def probe(value):
                return value == EXHAUSTED
        """
        assert lint_snippet(source, "core/bandwidth.py") == []

    def test_quiet_on_inequalities_and_ints(self):
        source = """
            def probe(value, count):
                return value <= 1e-9 or count == 0
        """
        assert lint_snippet(source, "core/bandwidth.py") == []

    def test_quiet_outside_core_and_sim(self):
        source = """
            def probe(value):
                return value == 0.0
        """
        assert lint_snippet(source, "uvm/memory.py") == []


class TestPERF001ScalarArrayLoops:
    def test_fires_on_for_over_numpy_call(self):
        source = """
            import numpy as np

            def walk(values):
                total = 0.0
                for value in np.asarray(values, dtype=np.float64):
                    total += value
                return total
        """
        assert codes(lint_snippet(source, "core/pressure.py")) == ["PERF001"]

    def test_fires_on_tracked_local_array(self):
        source = """
            import numpy as np

            def walk(n):
                slots = np.zeros(n)
                return [slot + 1 for slot in slots]
        """
        assert codes(lint_snippet(source, "sim/executor.py")) == ["PERF001"]

    def test_fires_on_slice_of_array(self):
        source = """
            import numpy as np

            def walk(n, lo, hi):
                combined = np.zeros(n)
                for available in combined[lo:hi]:
                    if available > 0:
                        return available
                return None
        """
        assert codes(lint_snippet(source, "core/bandwidth.py")) == ["PERF001"]

    def test_fires_on_elementwise_arithmetic_result(self):
        source = """
            import numpy as np

            def walk(n):
                pressure = np.ones(n)
                for excess in pressure - 1.0:
                    yield excess
        """
        assert codes(lint_snippet(source, "core/pressure.py")) == ["PERF001"]

    def test_quiet_on_tolist_chunk_walk(self):
        source = """
            import numpy as np

            def walk(n, lo, hi):
                combined = np.zeros(n)
                for available in combined[lo:hi].tolist():
                    if available > 0:
                        return available
                return None
        """
        assert lint_snippet(source, "core/bandwidth.py") == []

    def test_quiet_on_indexed_element_and_rebound_names(self):
        source = """
            import numpy as np

            def walk(n):
                slots = np.zeros(n)
                first = slots[0]
                slots = sorted(range(n))
                return [first + slot for slot in slots]
        """
        assert lint_snippet(source, "core/eviction.py") == []

    def test_quiet_outside_core_and_sim(self):
        source = """
            import numpy as np

            def walk(values):
                return [v + 1 for v in np.asarray(values)]
        """
        assert lint_snippet(source, "experiments/figures.py") == []


class TestSuppressions:
    def test_inline_disable_silences_one_rule(self):
        source = """
            import time

            def tick():
                return time.time()  # repro-lint: disable=DET001 -- test fixture
        """
        assert lint_snippet(source, "sim/engine.py") == []

    def test_disable_must_name_the_right_rule(self):
        source = """
            import time

            def tick():
                return time.time()  # repro-lint: disable=DET002
        """
        assert codes(lint_snippet(source, "sim/engine.py")) == ["DET001"]

    def test_disable_all_and_multi_statement_span(self):
        source = """
            import time

            def tick():
                return (
                    time.time()  # repro-lint: disable=all
                )
        """
        assert lint_snippet(source, "sim/engine.py") == []

    def test_suppression_on_any_line_of_statement(self):
        source = """
            import time

            def tick():
                return time.time(
                )  # repro-lint: disable=DET001 -- fixture
        """
        assert lint_snippet(source, "sim/engine.py") == []
        unsuppressed = source.replace("  # repro-lint: disable=DET001 -- fixture", "")
        assert codes(lint_snippet(unsuppressed, "sim/engine.py")) == ["DET001"]


class TestFrameworkAndCLI:
    def test_package_path_of(self):
        assert package_path_of(Path("src/repro/sim/engine.py")) == "sim/engine.py"
        assert package_path_of(Path("/x/repro/core/plan.py")) == "core/plan.py"
        assert package_path_of(Path("scratch/tool.py")) == "tool.py"

    def test_rule_selection_and_ignore(self):
        source = """
            import time

            def tick(cache, obj):
                cache[id(obj)] = time.time()
        """
        assert sorted(codes(lint_snippet(source, "sim/engine.py"))) == ["DET001", "DET002"]
        only = lint_snippet(source, "sim/engine.py", select=["det001"])
        assert codes(only) == ["DET001"]
        without = lint_snippet(source, "sim/engine.py", ignore=["DET001"])
        assert codes(without) == ["DET002"]

    def test_unknown_rule_code_suggests(self):
        with pytest.raises(LintError, match="did you mean 'det001'"):
            lint_source("x = 1\n", select=["DET01"])

    def test_registry_hosts_rules(self):
        available = LINT_REGISTRY.available()
        assert {"det001", "det002", "det003", "det004", "perf001"} <= set(available)
        assert issubclass(LINT_REGISTRY.get("DET001"), LintRule)

    def test_plugin_rules_register_and_unregister(self):
        @register_rule("TST001", title="test rule")
        class NamingRule(LintRule):
            code = "TST001"

            def visit_FunctionDef(self, node):
                if node.name == "bad_name":
                    self.report(node, "bad name")
                self.generic_visit(node)

        try:
            findings = lint_source("def bad_name():\n    pass\n", select=["TST001"])
            assert codes(findings) == ["TST001"]
        finally:
            LINT_REGISTRY.unregister("TST001")
        with pytest.raises(LintError):
            lint_source("x = 1\n", select=["TST001"])

    def test_parse_error_reported_as_finding(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        findings = lint_paths([tmp_path])
        assert codes(findings) == ["E001"]
        assert "cannot parse" in findings[0].message

    def test_lint_paths_missing_path_is_a_structured_finding(self):
        findings = lint_paths(["definitely/not/a/path"])
        assert [f.rule for f in findings] == ["E002"]
        assert "no such file" in findings[0].message

    def test_lint_paths_empty_directory_is_a_structured_finding(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        findings = lint_paths([empty])
        assert [f.rule for f in findings] == ["E002"]
        assert "no Python files" in findings[0].message

    def _violation_tree(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "clocky.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\n\ndef tick():\n    return time.time()\n")
        return tmp_path

    def test_cli_text_format_and_exit_codes(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert cli_main(["lint", str(tree)]) == 1
        captured = capsys.readouterr()
        assert "DET001" in captured.out
        assert "clocky.py:4" in captured.out
        assert "1 finding(s)" in captured.err

    def test_cli_json_format(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert cli_main(["lint", str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        assert payload["findings"][0]["rule"] == "DET001"
        assert payload["findings"][0]["line"] == 4

    def test_cli_rule_filtering(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert cli_main(["lint", str(tree), "--ignore", "DET001"]) == 0
        assert cli_main(["lint", str(tree), "--rule", "DET002"]) == 0
        assert cli_main(["lint", str(tree), "--rule", "DET001"]) == 1

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004", "PERF001"):
            assert code in out

    def test_cli_unknown_rule_is_usage_error(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert cli_main(["lint", str(tree), "--rule", "NOPE999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err


class TestBaseline:
    def _tree(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "clocky.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\n\ndef tick():\n    return time.time()\n")
        return tmp_path, module

    def test_baseline_grandfathers_then_regresses(self, tmp_path, capsys):
        tree, module = self._tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        assert cli_main(
            ["lint", str(tree), "--baseline", str(baseline_path), "--update-baseline"]
        ) == 0
        capsys.readouterr()

        # Grandfathered: same finding no longer fails the run.
        assert cli_main(["lint", str(tree), "--baseline", str(baseline_path)]) == 0
        assert "1 baselined" in capsys.readouterr().err

        # A *new* violation still fails even with the baseline in place.
        module.write_text(
            module.read_text() + "\ndef tock():\n    return time.monotonic()\n"
        )
        assert cli_main(["lint", str(tree), "--baseline", str(baseline_path)]) == 1
        captured = capsys.readouterr()
        assert "time.monotonic" in captured.out or "DET001" in captured.out

    def test_baseline_survives_line_drift(self, tmp_path):
        tree, module = self._tree(tmp_path)
        findings = lint_paths([tree])
        baseline = Baseline.from_findings(findings)
        # Push the violation down the file: fingerprints are line-independent.
        module.write_text("# header comment\n\n" + module.read_text())
        new, baselined, stale = baseline.partition(lint_paths([tree]))
        assert new == [] and len(baselined) == 1 and stale == 0

    def test_baseline_is_a_multiset(self, tmp_path):
        tree, module = self._tree(tmp_path)
        baseline = Baseline.from_findings(lint_paths([tree]))
        # Duplicate the identical offending line: one entry covers one finding.
        module.write_text(module.read_text() + "\ndef tock():\n    return time.time()\n")
        new, baselined, stale = baseline.partition(lint_paths([tree]))
        assert len(new) == 1 and len(baselined) == 1 and stale == 0

    def test_stale_entries_counted(self, tmp_path):
        tree, module = self._tree(tmp_path)
        baseline = Baseline.from_findings(lint_paths([tree]))
        module.write_text("def tick():\n    return 0\n")
        new, baselined, stale = baseline.partition(lint_paths([tree]))
        assert new == [] and baselined == [] and stale == 1

    def test_corrupt_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json")
        with pytest.raises(LintError, match="cannot parse lint baseline"):
            Baseline.load(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(LintError, match="not a baseline document"):
            Baseline.load(path)

    def test_unreadable_and_unwritable_baselines_raise_lint_error(self, tmp_path):
        with pytest.raises(LintError, match="cannot read lint baseline"):
            Baseline.load(tmp_path)  # a directory
        with pytest.raises(LintError, match="cannot write lint baseline"):
            Baseline().write(tmp_path / "missing" / "baseline.json")

    def test_baseline_round_trips_through_disk(self, tmp_path):
        tree, _ = self._tree(tmp_path)
        findings = lint_paths([tree])
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).write(path)
        loaded = Baseline.load(path)
        new, baselined, stale = loaded.partition(findings)
        assert new == [] and len(baselined) == len(findings) and stale == 0


class TestSelfClean:
    """The acceptance gate: the repository's own sources lint clean."""

    def test_src_repro_lints_clean_with_empty_baseline(self):
        findings = lint_paths([PACKAGE_DIR])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_committed_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.entries == []

    def test_seeded_violation_is_caught(self, tmp_path):
        """A stray wall-clock read in sim/engine.py would fail the lint job."""
        engine = PACKAGE_DIR / "sim" / "engine.py"
        seeded_root = tmp_path / "repro" / "sim"
        seeded_root.mkdir(parents=True)
        seeded = seeded_root / "engine.py"
        seeded.write_text(
            engine.read_text()
            + "\n\ndef _leak() -> float:\n    import time\n    return time.time()\n"
        )
        findings = lint_paths([seeded])
        assert codes(findings) == ["DET001"]
