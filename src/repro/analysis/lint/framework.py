"""The ``repro lint`` rule framework: sources, findings, suppressions, baseline.

Every correctness claim this repository makes rests on one informal
discipline: *bit-for-bit golden reproduction* (the figure/table goldens must
not drift, so the simulation layers may not read wall clocks, entropy
sources, object identities or unordered containers). This module turns that
discipline into machine-checked lint rules that run before a single
simulation does.

The moving parts:

* :class:`ModuleSource` — one parsed Python file: its AST, its comments, its
  inline suppressions and its *package path* (the path relative to the
  ``repro`` package root, which is what layer-scoped rules match against);
* :class:`LintRule` — an :class:`ast.NodeVisitor` subclass with a ``code``,
  a ``title`` and a ``rationale``; concrete rules live in
  :mod:`repro.analysis.lint.rules` and register themselves into
  :data:`LINT_REGISTRY` (a :class:`repro.registry.Registry`, so rule lookup
  gets the same alias/did-you-mean/unregister hygiene as policies and models,
  and out-of-tree rules can plug in through ``REPRO_PLUGINS``);
* :class:`LintFinding` — one violation, with a line-number-independent
  ``fingerprint`` (rule + package path + offending source line) used by the
  committed baseline so grandfathered findings survive unrelated edits;
* :class:`Baseline` — the committed grandfather file: known findings are
  subtracted from a run by fingerprint multiset, anything left fails the run;
* :func:`lint_paths` / :func:`lint_source` — the entry points used by the
  ``repro lint`` CLI and by the fixture-snippet tests.

Suppressions are inline comments anywhere on the offending statement::

    started = time.perf_counter()  # repro-lint: disable=DET001 -- wall-time phase, never serialized

A justification after ``--`` is conventional (CONTRIBUTING.md requires one);
``disable=all`` silences every rule on that statement. DET004's exact-float
sentinel annotation (``# repro-lint: exact-float``) is read from the same
comment stream.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ...errors import LintError
from ...registry import Registry

#: Packages whose behaviour must be a pure function of the workload + config
#: (they feed the golden files). Rules use this to scope themselves.
DETERMINISTIC_LAYERS: tuple[str, ...] = (
    "sim/", "core/", "uvm/", "ssd/", "graph/", "baselines/",
)

#: Rule code reserved for files the linter cannot parse (always emitted,
#: never selectable or suppressible).
PARSE_ERROR_CODE = "E001"

#: Rule code reserved for paths the linter cannot read at all: a missing
#: file/directory, a directory containing no Python files, or an unreadable
#: file. Like :data:`PARSE_ERROR_CODE` these are *analysis errors*, not rule
#: findings — they can be neither suppressed nor baselined, and the CLI exits
#: 2 (analysis incomplete) instead of 1 (violations found) when any appear.
UNREADABLE_CODE = "E002"

#: Codes that mean "the analysis could not complete", as opposed to "the
#: analysis found a violation".
ERROR_CODES: tuple[str, ...] = (PARSE_ERROR_CODE, UNREADABLE_CODE)

_SUPPRESS_RE = re.compile(r"repro-lint:\s*disable=([A-Za-z0-9_*,\s]+?)(?:\s*--.*)?$")
_ANNOTATION_RE = re.compile(r"repro-lint:\s*([a-z][a-z0-9-]*)(?:\s*--.*)?$")


def package_path_of(path: Path) -> str:
    """``path`` relative to the ``repro`` package root, as a posix string.

    ``src/repro/sim/engine.py`` → ``"sim/engine.py"``. Files outside any
    ``repro`` directory fall back to their own name, so layer-scoped rules
    simply do not match them.
    """
    parts = path.parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return path.name


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    rule: str
    path: str
    package_path: str
    line: int
    col: int
    message: str
    snippet: str

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching.

        Hashes the rule, the package-relative path and the stripped source
        line — not the line *number* — so edits elsewhere in the file do not
        invalidate grandfathered entries.
        """
        payload = f"{self.rule}\x00{self.package_path}\x00{self.snippet}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleSource:
    """One parsed source file plus the comment-derived lint metadata."""

    path: Path
    package_path: str
    text: str
    tree: ast.Module
    #: line number -> comment text (without the leading ``#``), for every
    #: comment token in the file.
    comments: dict[int, str] = field(default_factory=dict)
    #: line number -> uppercased rule codes disabled on that line ("*" = all).
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def parse(
        cls, path: Path, text: str | None = None, package_path: str | None = None
    ) -> "ModuleSource":
        """Parse one file (or an in-memory snippet posing as ``path``).

        Raises :class:`SyntaxError` for unparseable source; callers turn that
        into an :data:`PARSE_ERROR_CODE` finding.
        """
        if text is None:
            text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        comments = _collect_comments(text)
        suppressions: dict[int, frozenset[str]] = {}
        for line, comment in comments.items():
            match = _SUPPRESS_RE.search(comment)
            if match:
                codes = frozenset(
                    token.strip().upper()
                    for token in match.group(1).split(",")
                    if token.strip()
                )
                if codes:
                    suppressions[line] = codes
        return cls(
            path=path,
            package_path=package_path if package_path is not None else package_path_of(path),
            text=text,
            tree=tree,
            comments=comments,
            suppressions=suppressions,
        )

    def in_layers(self, layers: Sequence[str]) -> bool:
        """Whether this file lives under any of the given package-relative dirs."""
        return any(self.package_path.startswith(layer) for layer in layers)

    def annotated(self, line: int, annotation: str) -> bool:
        """Whether ``line`` carries ``# repro-lint: <annotation>``."""
        comment = self.comments.get(line)
        if comment is None:
            return False
        match = _ANNOTATION_RE.search(comment)
        return match is not None and match.group(1) == annotation

    def suppressed(self, code: str, first_line: int, last_line: int | None = None) -> bool:
        """Whether ``code`` is disabled anywhere on the statement's line span."""
        last = first_line if last_line is None else last_line
        for line in range(first_line, last + 1):
            codes = self.suppressions.get(line)
            if codes and (code.upper() in codes or "ALL" in codes or "*" in codes):
                return True
        return False

    def source_line(self, line: int) -> str:
        lines = self.text.splitlines()
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> imported dotted path, for resolving call targets.

    ``import time as _time`` maps ``_time`` to ``time``; ``from time import
    perf_counter as pc`` maps ``pc`` to ``time.perf_counter``; a bare
    ``import numpy.random`` maps ``numpy`` to ``numpy``. Relative imports are
    kept with their leading dots (``from .harness import x`` maps ``x`` to
    ``.harness.x``). The walk covers function-level imports too — the map is
    module-wide, a deliberate (conservative) flattening.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    root = name.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for name in node.names:
                if name.name == "*":
                    continue
                bound = name.asname or name.name
                aliases[bound] = f"{module}.{name.name}" if module else name.name
    return aliases


def dotted_name(node: ast.expr, aliases: Mapping[str, str]) -> str | None:
    """The resolved dotted path of a Name/Attribute chain, or ``None``.

    ``_time.perf_counter`` under ``import time as _time`` resolves to
    ``"time.perf_counter"``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))


def _collect_comments(text: str) -> dict[int, str]:
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#").strip()
    except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded first
        pass
    return comments


class LintRule(ast.NodeVisitor):
    """Base class for lint rules: an AST visitor that reports findings.

    Subclasses set :attr:`code`, :attr:`title` and :attr:`rationale`, override
    :meth:`applies_to` to scope themselves to a layer, optionally override
    :meth:`begin` for per-module setup (import maps, sentinel collection), and
    call :meth:`report` from ``visit_*`` methods.
    """

    code: str = "RULE000"
    title: str = ""
    rationale: str = ""

    def __init__(self) -> None:
        self.module: ModuleSource | None = None
        self._reports: list[tuple[ast.AST, str]] = []

    # -- subclass hooks -------------------------------------------------------

    def applies_to(self, module: ModuleSource) -> bool:
        return True

    def begin(self, module: ModuleSource) -> None:
        """Per-module setup before the AST walk."""

    def report(self, node: ast.AST, message: str) -> None:
        self._reports.append((node, message))

    # -- framework entry point ------------------------------------------------

    def check(self, module: ModuleSource) -> list[LintFinding]:
        """Run this rule over one module, honouring inline suppressions."""
        self.module = module
        self._reports = []
        self.begin(module)
        self.visit(module.tree)
        findings = []
        for node, message in self._reports:
            line = getattr(node, "lineno", 1)
            end_line = getattr(node, "end_lineno", None) or line
            if module.suppressed(self.code, line, end_line):
                continue
            findings.append(
                LintFinding(
                    rule=self.code,
                    path=str(module.path),
                    package_path=module.package_path,
                    line=line,
                    col=getattr(node, "col_offset", 0),
                    message=message,
                    snippet=module.source_line(line),
                )
            )
        return findings


#: Open registry of lint rules. Rule classes self-register on import of
#: :mod:`repro.analysis.lint.rules` (the bootstrap); plugins add their own
#: through ``@register_rule("XYZ123", title=..., rationale=...)``.
LINT_REGISTRY = Registry(
    "lint rule", bootstrap="repro.analysis.lint.rules", error_cls=LintError
)

#: Decorator registering a :class:`LintRule` subclass under its code.
register_rule = LINT_REGISTRY.register


def resolve_codes(codes: Iterable[str]) -> list[str]:
    """Canonical registry keys for user-supplied rule codes (case-insensitive)."""
    return [LINT_REGISTRY.resolve(code) for code in codes]


def active_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[LintRule]:
    """Instantiate the requested rules in registration order."""
    selected = set(resolve_codes(select)) if select is not None else None
    ignored = set(resolve_codes(ignore)) if ignore else set()
    rules = []
    for key in LINT_REGISTRY.available():
        if selected is not None and key not in selected:
            continue
        if key in ignored:
            continue
        rules.append(LINT_REGISTRY.create(key))
    return rules


def lint_modules(
    modules: Iterable[ModuleSource], rules: Sequence[LintRule]
) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for module in modules:
        for rule in rules:
            if rule.applies_to(module):
                findings.extend(rule.check(module))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _collect_files(
    paths: Sequence[Path | str],
) -> tuple[list[Path], list[LintFinding]]:
    """Expand paths to .py files; unusable paths become ``E002`` findings."""
    files: list[Path] = []
    errors: list[LintFinding] = []
    seen = set()

    def error(path: Path, message: str) -> None:
        errors.append(
            LintFinding(
                rule=UNREADABLE_CODE,
                path=str(path),
                package_path=package_path_of(path),
                line=1,
                col=0,
                message=message,
                snippet="",
            )
        )

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
            if not candidates:
                error(path, "directory contains no Python files")
        elif path.exists():
            candidates = [path]
        else:
            error(path, "no such file or directory")
            continue
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                files.append(candidate)
    return files, errors


def _parse_error(path: Path, exc: SyntaxError) -> LintFinding:
    return LintFinding(
        rule=PARSE_ERROR_CODE,
        path=str(path),
        package_path=package_path_of(path),
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"cannot parse file: {exc.msg}",
        snippet=(exc.text or "").strip(),
    )


def lint_paths(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Lint files/directories.

    Parse failures become :data:`PARSE_ERROR_CODE` findings and unusable
    paths become :data:`UNREADABLE_CODE` findings — structured output rather
    than exceptions, so CI artifacts capture them alongside rule findings.
    """
    rules = active_rules(select, ignore)
    files, error_findings = _collect_files(paths)
    modules: list[ModuleSource] = []
    for path in files:
        try:
            modules.append(ModuleSource.parse(path))
        except SyntaxError as exc:
            error_findings.append(_parse_error(path, exc))
        except (OSError, UnicodeDecodeError) as exc:
            error_findings.append(
                LintFinding(
                    rule=UNREADABLE_CODE,
                    path=str(path),
                    package_path=package_path_of(path),
                    line=1,
                    col=0,
                    message=f"cannot read file: {exc}",
                    snippet="",
                )
            )
    findings = lint_modules(modules, rules)
    findings += error_findings
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    text: str,
    package_path: str = "snippet.py",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[LintFinding]:
    """Lint an in-memory snippet as if it lived at ``package_path``.

    This is the fixture-test entry point: rules scoped to a layer are
    exercised by passing e.g. ``package_path="sim/engine.py"``.
    """
    module = ModuleSource.parse(
        Path(package_path), text=text, package_path=package_path
    )
    return lint_modules([module], active_rules(select, ignore))


# -- baseline -----------------------------------------------------------------


class Baseline:
    """The committed grandfather file for pre-existing findings.

    A baseline is a JSON document listing finding fingerprints (plus their
    human-readable context, for reviewability). :meth:`partition` subtracts
    baselined findings from a run as a *multiset* — two identical offending
    lines need two entries — so fixing one of them surfaces the other.
    """

    VERSION = 1

    def __init__(self, entries: Iterable[dict[str, Any]] = ()) -> None:
        self.entries = list(entries)

    @classmethod
    def load(cls, path: Path | str | None) -> "Baseline":
        """Read a baseline file; a missing path (or ``None``) means empty.

        An unreadable or malformed file raises :class:`~repro.errors.LintError`.
        """
        if path is None:
            return cls()
        path = Path(path)
        if not path.exists():
            return cls()
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read lint baseline {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LintError(f"cannot parse lint baseline {path}: {exc}")
        if not isinstance(data, dict) or "findings" not in data:
            raise LintError(f"lint baseline {path} is not a baseline document")
        return cls(data["findings"])

    @classmethod
    def from_findings(cls, findings: Iterable[LintFinding]) -> "Baseline":
        return cls(
            {
                "rule": f.rule,
                "package_path": f.package_path,
                "snippet": f.snippet,
                "fingerprint": f.fingerprint,
            }
            for f in findings
        )

    def write(self, path: Path | str) -> None:
        """Write the baseline; an unwritable path raises :class:`~repro.errors.LintError`."""
        document = {
            "version": self.VERSION,
            "findings": sorted(
                self.entries,
                key=lambda e: (e.get("package_path", ""), e.get("rule", ""), e.get("fingerprint", "")),
            ),
        }
        try:
            Path(path).write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise LintError(f"cannot write lint baseline {path}: {exc}") from exc

    def partition(
        self, findings: Sequence[LintFinding]
    ) -> tuple[list[LintFinding], list[LintFinding], int]:
        """Split a run into (new, grandfathered) findings; also count stale entries.

        Returns ``(new, baselined, stale)`` where ``stale`` is the number of
        baseline entries that matched nothing (fixed findings whose entries
        should be removed).
        """
        budget: dict[str, int] = {}
        for entry in self.entries:
            fingerprint = entry.get("fingerprint", "")
            budget[fingerprint] = budget.get(fingerprint, 0) + 1
        new: list[LintFinding] = []
        baselined: list[LintFinding] = []
        for finding in findings:
            if budget.get(finding.fingerprint, 0) > 0:
                budget[finding.fingerprint] -= 1
                baselined.append(finding)
            else:
                new.append(finding)
        stale = sum(budget.values())
        return new, baselined, stale
