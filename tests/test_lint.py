"""Tests for ``repro lint`` — the determinism static analyzer.

Each rule gets fixture-snippet pairs: a minimal violation that must fire and
the compliant idiom that must stay quiet. On top of that: the rules' layer
scoping, the CLI surface (one line per finding, exit 0/1, and exit 2 with
one ``error:`` line for a path the analyzer cannot check), and the
acceptance gate that ``src/repro`` lints clean.
"""

import ast
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    DETERMINISTIC_LAYERS,
    RULES,
    LintRule,
    lint_paths,
    lint_source,
    package_path_of,
)
from repro.cli import main as cli_main
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


def codes(findings):
    return [f.rule for f in findings]


def lint_snippet(source: str, package_path: str):
    return lint_source(textwrap.dedent(source), package_path=package_path)


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
            "random.SystemRandom().random()",
            "random.Random().random()",
            "random.Random(None).random()",
            "secrets.randbits(8)",
            "secrets.token_hex(8)",
            "time.clock_gettime(time.CLOCK_MONOTONIC)",
            "time.clock_gettime_ns(time.CLOCK_MONOTONIC)",
            "time.thread_time()",
            "time.thread_time_ns()",
        ],
    )
    def test_fires_on_entropy_in_deterministic_layer(self, call):
        source = f"""
            import datetime, os, random, secrets, time, uuid
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
        [("time", "monotonic()"), ("random", "shuffle(items)"), ("os", "urandom(8)"),
         ("secrets", "randbits(8)"), ("random", "Random().random()")],
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

    def test_captured_perf_counter_fires_in_executor(self):
        """DET001 has no per-module exception, ``sim/executor.py`` included."""
        source = """
            import time

            def wire():
                return time.perf_counter
        """
        findings = lint_snippet(source, "sim/executor.py")
        assert codes(findings) == ["DET001"]
        assert "captured without a call" in findings[0].message

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

    def test_perf_counter_fires_in_executor_too(self):
        source = """
            import time

            def measure():
                return time.perf_counter()
        """
        assert codes(lint_snippet(source, "sim/executor.py")) == ["DET001"]
        assert codes(lint_snippet(source, "sim/engine.py")) == ["DET001"]

    @pytest.mark.parametrize(
        "imports, use",
        [
            ("import time as _time", "_time.perf_counter()"),
            ("from time import perf_counter", "perf_counter()"),
            ("from time import perf_counter as clock", "clock"),
        ],
    )
    def test_executor_clock_fires_however_spelled(self, imports, use):
        source = f"""
            {imports}

            def measure():
                return {use}
        """
        assert codes(lint_snippet(source, "sim/executor.py")) == ["DET001"]

    def test_quiet_on_keyword_seeded_generator(self):
        source = """
            import random

            def noise(seed):
                return random.Random(x=seed).random()
        """
        assert lint_snippet(source, "sim/engine.py") == []


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


#: One minimal violation per rule, each firing that rule alone.
VIOLATIONS = {
    "DET001": "import time\n\ndef tick():\n    return time.time()\n",
    "DET002": "def memo(cache, obj):\n    return cache[id(obj)]\n",
    "DET003": "def walk(out):\n    for item in {1, 2}:\n        out.append(item)\n",
    "DET004": "def same(x):\n    return x == 0.5\n",
    "PERF001": "import numpy as np\n\ndef walk():\n    return [v for v in np.arange(3)]\n",
}
#: Where each rule applies; ``None`` means every file.
RULE_LAYERS = {
    "DET001": DETERMINISTIC_LAYERS,
    "DET002": None,
    "DET003": DETERMINISTIC_LAYERS,
    "DET004": ("core/", "sim/"),
    "PERF001": ("core/", "sim/"),
}


class TestLayerScoping:
    @pytest.mark.parametrize("code", sorted(VIOLATIONS))
    @pytest.mark.parametrize(
        "package_path",
        ["sim/engine.py", "core/plan.py", "uvm/memory.py", "baselines/g10.py",
         "experiments/cache.py", "cli.py"],
    )
    def test_rule_fires_only_in_its_layers(self, code, package_path):
        layers = RULE_LAYERS[code]
        expected = [code] if layers is None or package_path.startswith(layers) else []
        assert codes(lint_source(VIOLATIONS[code], package_path=package_path)) == expected


class TestFrameworkAndCLI:
    def test_package_path_of(self):
        assert package_path_of(Path("src/repro/sim/engine.py")) == "sim/engine.py"
        assert package_path_of(Path("/x/repro/core/plan.py")) == "core/plan.py"
        assert package_path_of(Path("scratch/tool.py")) == "tool.py"

    def test_rules_tuple_holds_the_five_rules(self):
        assert [rule.code for rule in RULES] == ["DET001", "DET002", "DET003", "DET004", "PERF001"]
        assert sorted(RULE_LAYERS) == sorted(rule.code for rule in RULES)
        for rule in RULES:
            assert issubclass(rule, LintRule)
            assert rule.title and rule.rationale

    def test_findings_sorted_by_location(self):
        source = """
            import time

            def tick(cache, obj):
                stamp = time.time()
                cache[id(obj)] = stamp
                return time.monotonic()
        """
        findings = lint_snippet(source, "sim/engine.py")
        assert [(f.line, f.rule) for f in findings] == [
            (5, "DET001"), (6, "DET002"), (7, "DET001"),
        ]

    def test_unparseable_file_raises_lint_error(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError, match="cannot parse .*broken.py"):
            lint_paths([tmp_path])

    def test_missing_path_raises_lint_error(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths(["definitely/not/a/path"])

    def test_empty_directory_raises_lint_error(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        (empty / "notes.txt").write_text("not python\n")
        with pytest.raises(LintError, match="no Python files"):
            lint_paths([empty])

    def test_undecodable_file_raises_lint_error(self, tmp_path):
        bad = tmp_path / "latin1.py"
        bad.write_bytes(b"name = '\xe9t\xe9'\n")
        with pytest.raises(LintError, match="cannot read .*latin1.py"):
            lint_paths([bad])

    def test_one_unusable_path_fails_the_whole_run(self, tmp_path):
        tree = self._violation_tree(tmp_path)
        with pytest.raises(LintError, match="no such file"):
            lint_paths([tree, tmp_path / "missing.py"])

    def _violation_tree(self, tmp_path):
        module = tmp_path / "repro" / "sim" / "clocky.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\n\ndef tick():\n    return time.time()\n")
        return tmp_path

    def test_cli_text_format_and_exit_codes(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert cli_main(["lint", str(tree)]) == 1
        captured = capsys.readouterr()
        module = tree / "repro" / "sim" / "clocky.py"
        assert captured.out.splitlines() == [
            f"{module}:4:11: DET001 call to time.time() in a deterministic layer; "
            "the simulated clock and seeded generators are the only allowed sources"
        ]
        assert "1 finding(s)" in captured.err

    def test_cli_clean_tree_exits_0(self, tmp_path, capsys):
        module = tmp_path / "repro" / "sim" / "calm.py"
        module.parent.mkdir(parents=True)
        module.write_text("def tick(now):\n    return now + 1.0\n")
        assert cli_main(["lint", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s)" in captured.err

    @pytest.mark.parametrize("kind", ["missing", "empty-dir", "unparseable", "undecodable"])
    def test_cli_unusable_path_exits_2_with_one_error_line(self, kind, tmp_path, capsys):
        path = tmp_path / "target"
        if kind == "empty-dir":
            path.mkdir()
        elif kind == "unparseable":
            path = tmp_path / "broken.py"
            path.write_text("def broken(:\n")
        elif kind == "undecodable":
            path = tmp_path / "latin1.py"
            path.write_bytes(b"name = '\xe9t\xe9'\n")
        assert cli_main(["lint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("in_checkout", [True, False], ids=["checkout", "elsewhere"])
    def test_cli_default_path_is_the_package(self, in_checkout, tmp_path, monkeypatch, capsys):
        import repro

        seen = []
        monkeypatch.setattr("repro.analysis.lint.lint_paths", lambda paths: seen.append(paths) or [])
        monkeypatch.chdir(REPO_ROOT if in_checkout else tmp_path)
        assert cli_main(["lint"]) == 0
        expected = PACKAGE_DIR if in_checkout else Path(repro.__file__).parent
        assert [Path(path).resolve() for path in seen[0]] == [expected.resolve()]


class TestSelfClean:
    """The acceptance gate: the repository's own sources lint clean."""

    def test_src_repro_lints_clean(self):
        findings = lint_paths([PACKAGE_DIR])
        assert findings == [], "\n".join(f.render() for f in findings)

    @pytest.mark.parametrize("layer", DETERMINISTIC_LAYERS, ids=lambda layer: layer.rstrip("/"))
    def test_deterministic_layer_never_imports_time(self, layer):
        """DET001 has no exception, so no deterministic layer has a use for
        the ``time`` module at all."""
        modules = sorted((PACKAGE_DIR / layer).rglob("*.py"))
        assert modules
        importers = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(name.partition(".")[0] == "time" for name in names):
                    importers.append(path.relative_to(PACKAGE_DIR).as_posix())
        assert importers == []

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

    def test_cli_flags_one_clock_read_in_a_copy_of_src_repro(self, tmp_path, capsys):
        copy = tmp_path / "repro"
        shutil.copytree(PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
        engine = copy / "sim" / "engine.py"
        engine.write_text(
            engine.read_text()
            + "\n\ndef _leak() -> float:\n    import time\n    return time.time()\n"
        )
        assert cli_main(["lint", str(copy)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{engine}:") and " DET001 " in lines[0]

    def test_exact_float_annotation_keeps_bandwidth_clean(self):
        """``EXHAUSTED_SLOT``'s annotation is the one in use: without it,
        DET004 flags every exact comparison against the sentinel."""
        source = (PACKAGE_DIR / "core" / "bandwidth.py").read_text(encoding="utf-8")
        assert lint_source(source, "core/bandwidth.py") == []
        stripped = source.replace("  # repro-lint: exact-float", "")
        assert stripped != source
        findings = lint_source(stripped, "core/bandwidth.py")
        assert findings and set(codes(findings)) == {"DET004"}
