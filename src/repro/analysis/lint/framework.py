"""The ``repro lint`` framework: parsed sources, findings and the rule base class.

Every correctness claim this repository makes rests on one informal
discipline: *bit-for-bit golden reproduction* (the figure/table goldens must
not drift, so the simulation layers may not read wall clocks, entropy
sources, object identities or unordered containers). This module turns that
discipline into machine-checked lint rules that run before a single
simulation does.

The moving parts:

* :class:`ModuleSource` — one parsed Python file: its AST, its comments and
  its *package path* (the path relative to the ``repro`` package root, which
  is what layer-scoped rules match against);
* :class:`LintRule` — an :class:`ast.NodeVisitor` subclass with a ``code``,
  a ``title`` and a ``rationale``; the concrete rules are the
  :data:`~repro.analysis.lint.rules.RULES` tuple;
* :class:`LintFinding` — one violation at one source location;
* :func:`lint_paths` / :func:`lint_source` — the entry points used by the
  ``repro lint`` CLI and by the fixture-snippet tests. A path the analyzer
  cannot use (missing, without Python files, unreadable or unparseable)
  raises :class:`~repro.errors.LintError` instead of being half-checked.

The one comment the analyzer reads is DET004's exact-float sentinel
annotation, ``# repro-lint: exact-float`` on the sentinel's assignment.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ...errors import LintError

#: Packages whose behaviour must be a pure function of the workload + config
#: (they feed the golden files). Rules use this to scope themselves.
DETERMINISTIC_LAYERS: tuple[str, ...] = (
    "sim/", "core/", "uvm/", "ssd/", "graph/", "baselines/",
)

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


@dataclass(frozen=True, order=True)
class LintFinding:
    """One rule violation at one source location (ordered by location)."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleSource:
    """One parsed source file plus its comments."""

    path: Path
    package_path: str
    tree: ast.Module
    #: line number -> comment text (without the leading ``#``), for every
    #: comment token in the file.
    comments: dict[int, str] = field(default_factory=dict)

    @classmethod
    def parse(
        cls, path: Path, text: str | None = None, package_path: str | None = None
    ) -> "ModuleSource":
        """Parse one file (or an in-memory snippet posing as ``path``).

        An unreadable or unparseable file raises
        :class:`~repro.errors.LintError`.
        """
        if text is None:
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
        return cls(
            path=path,
            package_path=package_path if package_path is not None else package_path_of(path),
            tree=tree,
            comments=_collect_comments(text),
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
        self._path = ""
        self._findings: list[LintFinding] = []

    # -- subclass hooks -------------------------------------------------------

    def applies_to(self, module: ModuleSource) -> bool:
        return True

    def begin(self, module: ModuleSource) -> None:
        """Per-module setup before the AST walk."""

    def report(self, node: ast.AST, message: str) -> None:
        self._findings.append(
            LintFinding(
                path=self._path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=self.code,
                message=message,
            )
        )

    # -- framework entry point ------------------------------------------------

    def check(self, module: ModuleSource) -> list[LintFinding]:
        """Run this rule over one module."""
        self._path = str(module.path)
        self._findings = []
        self.begin(module)
        self.visit(module.tree)
        return self._findings


def lint_modules(modules: Iterable[ModuleSource]) -> list[LintFinding]:
    """Every rule's findings over ``modules``, sorted by location."""
    from .rules import RULES  # deferred: rules.py builds on this module

    rules = [rule_class() for rule_class in RULES]
    return sorted(
        finding
        for module in modules
        for rule in rules
        if rule.applies_to(module)
        for finding in rule.check(module)
    )


def _collect_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand paths to .py files; an unusable path raises :class:`LintError`."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
            if not candidates:
                raise LintError(f"cannot lint {path}: directory contains no Python files")
            files += candidates
        elif path.exists():
            files.append(path)
        else:
            raise LintError(f"cannot lint {path}: no such file or directory")
    return list(dict.fromkeys(files))


def lint_paths(paths: Sequence[Path | str]) -> list[LintFinding]:
    """Lint files and directories.

    Every path is collected and parsed before any rule runs, so a missing,
    empty, unreadable or unparseable one raises
    :class:`~repro.errors.LintError` rather than yielding a partial result.
    """
    return lint_modules([ModuleSource.parse(path) for path in _collect_files(paths)])


def lint_source(text: str, package_path: str = "snippet.py") -> list[LintFinding]:
    """Lint an in-memory snippet as if it lived at ``package_path``.

    This is the fixture-test entry point: rules scoped to a layer are
    exercised by passing e.g. ``package_path="sim/engine.py"``.
    """
    module = ModuleSource.parse(Path(package_path), text=text, package_path=package_path)
    return lint_modules([module])
