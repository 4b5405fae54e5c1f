"""Interprocedural dataflow analyses and the ``--project`` lint rules.

Two rule families run on top of the :mod:`~repro.analysis.symbols` table
and :mod:`~repro.analysis.callgraph` graph, both activated only by
``repro lint --project`` (they need every module at once):

* **DET005** — interprocedural determinism taint. A function anywhere in the
  tree that consumes wall-clock/entropy (``time.time``, ``random.*``,
  ``uuid``, ``os.urandom``, ``numpy.random``) taints itself; taint propagates
  callee→caller over the call graph; any call *from* a deterministic layer
  (``sim/``, ``core/``, ``uvm/``, ``ssd/``, ``graph/``, ``baselines/``) into
  a tainted function outside those layers is flagged, with the full call
  chain down to the entropy read as evidence. This closes the hole DET001
  cannot see: laundering nondeterminism through a helper in another module.
* **EXC001** — exception contract. Only :class:`~repro.errors.ReproError`
  subclasses may propagate out of CLI command handlers (``_cmd_*`` in
  ``cli.py``). Each function's raise-set is propagated over the call graph
  and intersected with the except-handlers enclosing each call site;
  whatever non-``ReproError`` survives at a handler is flagged with the
  raise chain as evidence.

Conservatism contract (shared by both): the call graph resolves only
statically certain targets, so dynamically dispatched paths (registry
``create``, callbacks, duck-typed attributes) are invisible — these rules can
miss such paths but never fabricate one. EXC001 only sees explicit ``raise``
statements of resolvable exception classes and treats an unresolvable
``except`` clause as catching everything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .callgraph import CallEdge, CallGraph
from .lint.framework import (
    DETERMINISTIC_LAYERS,
    LintFinding,
    ModuleSource,
    ProjectRule,
    dotted_name,
    register_rule,
)
from .lint.rules import NoEntropyRule
from .symbols import FunctionSymbol, ModuleSymbols, SymbolTable

__all__ = [
    "ProjectContext",
    "EntropyTaintRule",
    "ExceptionContractRule",
]

#: Package path of the exception hierarchy root every contract allows.
_REPRO_ERROR = "errors.py::ReproError"

#: Module holding the CLI command handlers EXC001 guards.
_CLI_MODULE = "cli.py"

#: Exceptions that may always propagate: they are control flow, not errors.
_CONTROL_FLOW_EXCEPTIONS = frozenset(
    {"KeyboardInterrupt", "SystemExit", "GeneratorExit"}
)

#: Sentinel for "this handler catches everything" (bare ``except:`` or an
#: ``except`` whose class expression we cannot resolve — conservative).
_CATCH_ALL = "*"


@dataclass
class ProjectContext:
    """Everything a :class:`ProjectRule` sees: modules, symbols, call graph."""

    modules: dict[str, ModuleSource]
    table: SymbolTable
    graph: CallGraph

    @classmethod
    def build(cls, sources: Sequence[ModuleSource]) -> "ProjectContext":
        table = SymbolTable.build(sources)
        graph = CallGraph.build(table)
        return cls(
            modules={source.package_path: source for source in sources},
            table=table,
            graph=graph,
        )

    def finding(
        self,
        code: str,
        module_path: str,
        line: int,
        col: int,
        message: str,
        evidence: Iterable[str] = (),
    ) -> LintFinding | None:
        """Build one finding, honouring inline suppressions on its line."""
        module = self.modules[module_path]
        if module.suppressed(code, line):
            return None
        return LintFinding(
            rule=code,
            path=str(module.path),
            package_path=module.package_path,
            line=line,
            col=col,
            message=message,
            snippet=module.source_line(line),
            evidence=tuple(evidence),
        )

    def in_deterministic_layers(self, module_path: str) -> bool:
        return any(module_path.startswith(layer) for layer in DETERMINISTIC_LAYERS)


def _sorted_findings(findings: Iterable[LintFinding | None]) -> list[LintFinding]:
    kept = [f for f in findings if f is not None]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


# ---------------------------------------------------------------------------
# DET005 — interprocedural determinism taint
# ---------------------------------------------------------------------------


@register_rule(
    "DET005",
    title="no call path from a deterministic layer to wall-clock/entropy",
    rationale=(
        "helpers in other modules can launder nondeterminism DET001 cannot "
        "see; taint is propagated over the whole call graph"
    ),
)
class EntropyTaintRule(ProjectRule):
    """Forward entropy taint over the project call graph.

    Seeds are direct entropy calls anywhere in the tree — except those
    DET001 already sanctions (its per-module allowlist and inline
    suppressions). Taint propagates callee→caller; a finding is the frontier
    edge where a deterministic-layer function calls a tainted function that
    lives *outside* the deterministic layers (entropy calls inside them are
    DET001's per-module findings, so each violation is reported exactly
    once). Dynamic dispatch is invisible to the call graph, so a launder
    routed through a registry or callback is not caught — the conservative
    trade documented in :mod:`repro.analysis.callgraph`.
    """

    code = "DET005"
    title = "no call path from a deterministic layer to wall-clock/entropy"
    rationale = (
        "helpers in other modules can launder nondeterminism DET001 cannot "
        "see; taint is propagated over the whole call graph"
    )

    def check_project(self, project: ProjectContext) -> list[LintFinding]:
        breadcrumb = self._propagate(project)
        findings: list[LintFinding | None] = []
        seen: set[tuple[str, int, int, str]] = set()
        for edge in project.graph.project_edges():
            caller = project.table.functions[edge.caller]
            if not project.in_deterministic_layers(caller.module):
                continue
            callee = project.table.functions[edge.callee]
            if project.in_deterministic_layers(callee.module):
                continue
            if edge.callee not in breadcrumb:
                continue
            dedupe = (caller.module, edge.line, edge.col, edge.callee)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            chain, source = self._chain(edge, breadcrumb)
            findings.append(
                project.finding(
                    self.code,
                    caller.module,
                    edge.line,
                    edge.col,
                    f"call into {callee.qual} ({callee.module}) reaches "
                    f"{source}() {len(chain) - 1} call(s) away; deterministic "
                    "layers must not consume wall-clock/entropy-derived "
                    "values, however indirectly",
                    evidence=chain,
                )
            )
        return _sorted_findings(findings)

    def _propagate(self, project: ProjectContext) -> dict[str, CallEdge]:
        """Taint every function with a path to an unsanctioned entropy call.

        Returns a breadcrumb map: tainted fid → the outgoing edge that taints
        it (external entropy edge for seeds, project edge toward the source
        otherwise), from which evidence chains are reconstructed.
        """
        breadcrumb: dict[str, CallEdge] = {}
        work: list[str] = []
        for edge in project.graph.external_edges():
            if not NoEntropyRule.matches(edge.callee):
                continue
            caller = project.table.functions[edge.caller]
            module = project.modules[caller.module]
            allowed = NoEntropyRule.ALLOWLIST.get(module.package_path, frozenset())
            if edge.callee in allowed:
                continue
            if module.suppressed("DET001", edge.line) or module.suppressed(
                self.code, edge.line
            ):
                continue
            if edge.caller not in breadcrumb:
                breadcrumb[edge.caller] = edge
                work.append(edge.caller)
        while work:
            fid = work.pop()
            for edge in project.graph.calls_to(fid):
                if edge.caller not in breadcrumb:
                    breadcrumb[edge.caller] = edge
                    work.append(edge.caller)
        return breadcrumb

    @staticmethod
    def _chain(
        frontier: CallEdge, breadcrumb: Mapping[str, CallEdge]
    ) -> tuple[list[str], str]:
        """The evidence chain from a frontier edge down to the entropy call."""
        chain = [frontier.describe()]
        current = frontier.callee
        visited = {frontier.caller}
        while current not in visited:
            visited.add(current)
            step = breadcrumb.get(current)
            if step is None:  # pragma: no cover - breadcrumbs are complete
                break
            chain.append(step.describe())
            if step.external:
                return chain, step.callee
            current = step.callee
        return chain, chain[-1].rsplit("-> ", 1)[-1].rstrip("()")


# ---------------------------------------------------------------------------
# EXC001 — exception contracts at the CLI handlers
# ---------------------------------------------------------------------------

#: Parent links for the builtin exceptions the analysis understands. Names
#: outside this table (and outside the project) never enter raise-sets.
_BUILTIN_PARENTS: dict[str, str | None] = {
    "BaseException": None,
    "Exception": "BaseException",
    "GeneratorExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "Exception",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "ProcessLookupError": "OSError",
    "ChildProcessError": "OSError",
    "BlockingIOError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "UnicodeTranslateError": "UnicodeError",
}


@dataclass(frozen=True)
class _RaiseOrigin:
    """Where an exception in a raise-set comes from: a raise or a call."""

    kind: str  #: "raise" | "call"
    module: str
    line: int
    col: int
    via: str | None = None  #: callee fid for kind == "call"


class _ExceptionLattice:
    """Hierarchy queries over project exception classes + known builtins."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table

    def ancestors(self, key: str) -> set[str]:
        out: set[str] = set()
        stack = [key]
        while stack:
            current = stack.pop()
            klass = self.table.classes.get(current)
            if klass is not None:
                for base in klass.bases:
                    if base not in out:
                        out.add(base)
                        stack.append(base)
            else:
                parent = _BUILTIN_PARENTS.get(current)
                if parent is not None and parent not in out:
                    out.add(parent)
                    stack.append(parent)
        return out

    def is_repro_error(self, key: str) -> bool:
        return key == _REPRO_ERROR or _REPRO_ERROR in self.ancestors(key)

    def caught_by(self, raised: str, handlers: Iterable[str]) -> bool:
        lineage = {raised} | self.ancestors(raised)
        for handler in handlers:
            if handler == _CATCH_ALL or handler in lineage:
                return True
        return False

    def resolve(self, node: ast.expr, module: ModuleSymbols) -> str | None:
        """The exception key named by ``node`` (class ref or call), if any."""
        if isinstance(node, ast.Call):
            node = node.func
        dotted = dotted_name(node, module.aliases)
        if dotted is None:
            return None
        resolved = self.table.resolve_dotted(dotted, module.path)
        if resolved is not None and resolved[0] == "class":
            return resolved[1].cid  # type: ignore[union-attr]
        if "." not in dotted and dotted in _BUILTIN_PARENTS:
            return dotted
        return None


class _FunctionRaises:
    """Raise sites and call sites of one function, with handler contexts."""

    def __init__(
        self,
        function: FunctionSymbol,
        module: ModuleSymbols,
        lattice: _ExceptionLattice,
        edges: Mapping[tuple[int, int], CallEdge],
    ) -> None:
        self.function = function
        self.module = module
        self.lattice = lattice
        self.edges = edges
        #: (exception key, origin, enclosing handler keys)
        self.raises: list[tuple[str, _RaiseOrigin, tuple[str, ...]]] = []
        #: (project call edge, enclosing handler keys)
        self.calls: list[tuple[CallEdge, tuple[str, ...]]] = []
        self._walk(function.node.body, ())

    def _handler_keys(self, handler: ast.ExceptHandler) -> list[str]:
        if handler.type is None:
            return [_CATCH_ALL]
        types = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        keys = []
        for node in types:
            key = self.lattice.resolve(node, self.module)
            # An unresolvable except clause conservatively catches everything:
            # better to miss a leak than to flag an exception that is caught.
            keys.append(key if key is not None else _CATCH_ALL)
        return keys

    def _walk(self, body: Sequence[ast.stmt], caught: tuple[str, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Try):
                handler_keys: list[str] = []
                for handler in stmt.handlers:
                    handler_keys.extend(self._handler_keys(handler))
                self._walk(stmt.body, caught + tuple(handler_keys))
                for handler in stmt.handlers:
                    self._walk(handler.body, caught)
                self._walk(stmt.orelse, caught)
                self._walk(stmt.finalbody, caught)
                continue
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                key = self.lattice.resolve(stmt.exc, self.module)
                if key is not None:
                    origin = _RaiseOrigin(
                        kind="raise",
                        module=self.function.module,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                    )
                    self.raises.append((key, origin, caught))
            self._scan_calls(stmt, caught)
            for child_body in _sub_bodies(stmt):
                self._walk(child_body, caught)

    def _scan_calls(self, stmt: ast.stmt, caught: tuple[str, ...]) -> None:
        """Record project call edges in this statement's *own* expressions.

        Only the statement's header expressions are scanned (an ``if`` test,
        a ``for`` iterable, an assignment's value); nested statement bodies
        are walked recursively by :meth:`_walk` so a ``try`` inside them gets
        its own handler context. Calls inside lambdas are skipped — their
        execution is deferred, so attributing their raises here could flag an
        exception that never propagates through this function.
        """
        stack: list[ast.AST] = list(_own_exprs(stmt))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                edge = self.edges.get((node.lineno, node.col_offset))
                if edge is not None and not edge.external:
                    self.calls.append((edge, caught))
            stack.extend(ast.iter_child_nodes(node))


def _own_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions evaluated by a statement itself (not its bodies)."""
    out: list[ast.expr] = []
    for _, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            out.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    out.append(item)
                elif isinstance(item, ast.withitem):
                    out.append(item.context_expr)
                    if item.optional_vars is not None:
                        out.append(item.optional_vars)
    return out


def _sub_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies = []
    for name in ("body", "orelse", "finalbody"):
        value = getattr(stmt, name, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    for case in getattr(stmt, "cases", []) or []:  # match statements
        bodies.append(case.body)
    return bodies


@register_rule(
    "EXC001",
    title="only ReproError subclasses may escape CLI handlers",
    rationale=(
        "the CLI's exit-code contract assumes every failure surfaces as a "
        "ReproError"
    ),
)
class ExceptionContractRule(ProjectRule):
    """Propagated raise-sets intersected with except-handlers at boundaries.

    Each function's raise-set is its own (uncaught) explicit raises plus its
    callees' raise-sets filtered through the except-handlers enclosing each
    call site, iterated to a fixpoint over the call graph. At the contract
    boundary — the ``_cmd_*`` handlers in ``cli.py`` — anything that is not
    a ``ReproError`` (or pure control flow) is flagged, with the propagation
    chain down to the offending ``raise`` as evidence. Only explicit raises
    of statically resolvable classes participate: exceptions born inside the
    standard library (or behind dynamic dispatch) are invisible, so this rule
    under-approximates — by design.
    """

    code = "EXC001"
    title = "only ReproError subclasses may escape CLI handlers"
    rationale = (
        "the CLI's exit-code contract assumes every failure surfaces as a "
        "ReproError"
    )

    def check_project(self, project: ProjectContext) -> list[LintFinding]:
        lattice = _ExceptionLattice(project.table)
        summaries = self._summaries(project, lattice)
        raise_sets = self._fixpoint(summaries, lattice)
        findings: list[LintFinding | None] = []
        for function in self._contract_functions(project):
            for key, origin in sorted(raise_sets.get(function.fid, {}).items()):
                if lattice.is_repro_error(key) or key in _CONTROL_FLOW_EXCEPTIONS:
                    continue
                chain, root = self._chain(function.fid, key, raise_sets)
                findings.append(
                    project.finding(
                        self.code,
                        function.module,
                        origin.line,
                        origin.col,
                        f"{_exception_label(key)} can escape "
                        f"CLI handler {function.qual} (raised at "
                        f"{root}); only ReproError subclasses may propagate "
                        "out of this boundary",
                        evidence=chain,
                    )
                )
        return _sorted_findings(findings)

    # -- analysis --------------------------------------------------------------

    def _summaries(
        self, project: ProjectContext, lattice: _ExceptionLattice
    ) -> dict[str, _FunctionRaises]:
        summaries: dict[str, _FunctionRaises] = {}
        for function in project.table.functions.values():
            module = project.table.modules[function.module]
            edges = {
                (edge.line, edge.col): edge
                for edge in project.graph.calls_from(function.fid)
            }
            summaries[function.fid] = _FunctionRaises(
                function, module, lattice, edges
            )
        return summaries

    def _fixpoint(
        self, summaries: Mapping[str, _FunctionRaises], lattice: _ExceptionLattice
    ) -> dict[str, dict[str, _RaiseOrigin]]:
        """Iterate raise-set propagation over the call graph to a fixpoint."""
        raise_sets: dict[str, dict[str, _RaiseOrigin]] = {
            fid: {} for fid in summaries
        }
        for fid, summary in summaries.items():
            for key, origin, caught in summary.raises:
                if not lattice.caught_by(key, caught):
                    raise_sets[fid].setdefault(key, origin)
        changed = True
        while changed:
            changed = False
            for fid, summary in summaries.items():
                current = raise_sets[fid]
                for edge, caught in summary.calls:
                    for key in list(raise_sets.get(edge.callee, {})):
                        if key in current:
                            continue
                        if lattice.caught_by(key, caught):
                            continue
                        current[key] = _RaiseOrigin(
                            kind="call",
                            module=summary.function.module,
                            line=edge.line,
                            col=edge.col,
                            via=edge.callee,
                        )
                        changed = True
        return raise_sets

    def _contract_functions(self, project: ProjectContext) -> list[FunctionSymbol]:
        cli = project.table.modules.get(_CLI_MODULE)
        if cli is None:
            return []
        return [
            f for name, f in sorted(cli.functions.items()) if name.startswith("_cmd_")
        ]

    @staticmethod
    def _chain(
        fid: str, key: str, raise_sets: Mapping[str, dict[str, _RaiseOrigin]]
    ) -> tuple[list[str], str]:
        """Evidence chain from a contract function down to the raise site."""
        chain: list[str] = []
        current = fid
        visited: set[str] = set()
        while current not in visited:
            visited.add(current)
            origin = raise_sets.get(current, {}).get(key)
            if origin is None:  # pragma: no cover - chains are complete
                break
            _, _, qual = current.partition("::")
            if origin.kind == "raise":
                chain.append(
                    f"{origin.module}:{origin.line} {qual} raises "
                    f"{_exception_label(key)}"
                )
                return chain, f"{origin.module}:{origin.line}"
            chain.append(
                f"{origin.module}:{origin.line} {qual} -> {origin.via}"
            )
            current = origin.via or ""
        return chain, chain[-1] if chain else fid  # pragma: no cover - defensive


def _exception_label(key: str) -> str:
    _, _, qual = key.rpartition("::")
    return qual
