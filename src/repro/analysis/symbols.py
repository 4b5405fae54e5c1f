"""Project-wide symbol table for the interprocedural lint rules.

The per-module rules in :mod:`repro.analysis.lint.rules` deliberately see one
file at a time; the ``--project`` rules (DET005/EXC001) need to answer
questions like "which function does ``SweepRunner.run`` name from over in
``cli.py``?" across the whole ``src/repro`` tree. This module builds that
index:

* :class:`FunctionSymbol` — one ``def``/``async def``, module-level or
  method, addressed by a stable id ``"<package_path>::<qualname>"``
  (``"experiments/sweep.py::SweepRunner.run"``);
* :class:`ClassSymbol` — one class with its methods, resolved base classes
  and the inferred types of ``self.<attr>`` fields assigned from constructor
  calls (``self.cache = ResultCache(...)`` types ``cache`` as ``ResultCache``);
* :class:`ModuleSymbols` — one module: its functions, classes and
  import-alias map;
* :class:`SymbolTable` — the project: lookup by package path or dotted name,
  alias/from-import-aware :meth:`resolve_dotted` (following re-exports
  through ``__init__`` modules), and method resolution over project base
  classes.

Everything here is *conservative by construction*: a name that cannot be
resolved statically resolves to nothing, and downstream analyses treat
"nothing" as "no edge" — the rules built on top may miss dynamic dispatch
(registry lookups, duck typing) but never invent a call that cannot happen.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .lint.framework import ModuleSource, dotted_name, import_aliases

__all__ = [
    "ClassSymbol",
    "FunctionSymbol",
    "ModuleSymbols",
    "Resolution",
    "SymbolTable",
    "module_dotted",
]

#: Maximum re-export hops followed through ``__init__`` alias chains before
#: resolution gives up (cycle guard; real chains are 1-2 hops deep).
_MAX_REEXPORT_HOPS = 8


def module_dotted(package_path: str) -> str:
    """Package-relative dotted module name for a package path.

    ``"experiments/sweep.py"`` → ``"experiments.sweep"``;
    ``"experiments/__init__.py"`` → ``"experiments"``; the package root
    ``"__init__.py"`` → ``""``.
    """
    path = package_path
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("__init__"):
        path = path[: -len("__init__")].rstrip("/")
    return path.replace("/", ".")


@dataclass
class FunctionSymbol:
    """One function or method definition in the project."""

    module: str  #: package path of the defining module
    qual: str  #: ``"name"`` or ``"Class.name"``
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None  #: defining class name, for methods

    @property
    def fid(self) -> str:
        """Stable project-unique id: ``"<package_path>::<qual>"``."""
        return f"{self.module}::{self.qual}"

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassSymbol:
    """One class definition with its methods and resolved bases."""

    module: str
    name: str
    node: ast.ClassDef
    #: Base expressions resolved to project class ids (``"module::Class"``)
    #: or external dotted names (``"abc.ABC"``); unresolvable bases dropped.
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionSymbol] = field(default_factory=dict)
    #: ``self.<attr>`` → class id, inferred from ``self.attr = ClassName(...)``
    #: assignments anywhere in the class body (typically ``__init__``).
    attr_types: dict[str, str] = field(default_factory=dict)

    @property
    def cid(self) -> str:
        return f"{self.module}::{self.name}"


@dataclass
class ModuleSymbols:
    """The symbols of one parsed module."""

    source: ModuleSource
    dotted: str
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    classes: dict[str, ClassSymbol] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return self.source.package_path


#: One resolution result: ``(kind, payload)`` where kind is ``"function"``,
#: ``"class"`` or ``"module"``.
Resolution = tuple[str, object]


class SymbolTable:
    """Symbols of every module handed to one project lint run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleSymbols] = {}
        self._by_dotted: dict[str, str] = {}
        self.functions: dict[str, FunctionSymbol] = {}
        self.classes: dict[str, ClassSymbol] = {}

    @classmethod
    def build(cls, sources: Iterable[ModuleSource]) -> "SymbolTable":
        table = cls()
        for source in sources:
            table._index_module(source)
        table._resolve_class_bases()
        return table

    # -- construction ----------------------------------------------------------

    def _index_module(self, source: ModuleSource) -> None:
        module = ModuleSymbols(
            source=source,
            dotted=module_dotted(source.package_path),
            aliases=import_aliases(source.tree),
        )
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbol = FunctionSymbol(
                    module=module.path,
                    qual=node.name,
                    name=node.name,
                    node=node,
                )
                module.functions[node.name] = symbol
                self.functions[symbol.fid] = symbol
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)
        self.modules[module.path] = module
        self._by_dotted[module.dotted] = module.path

    def _index_class(self, module: ModuleSymbols, node: ast.ClassDef) -> None:
        symbol = ClassSymbol(module=module.path, name=node.name, node=node)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionSymbol(
                    module=module.path,
                    qual=f"{node.name}.{item.name}",
                    name=item.name,
                    node=item,
                    cls=node.name,
                )
                symbol.methods[item.name] = method
                self.functions[method.fid] = method
        module.classes[node.name] = symbol
        self.classes[symbol.cid] = symbol

    def _resolve_class_bases(self) -> None:
        """Resolve base-class expressions and ``self.<attr>`` constructor types.

        Runs after every module is indexed so forward references across
        modules resolve regardless of build order.
        """
        for module in self.modules.values():
            for klass in module.classes.values():
                for base in klass.node.bases:
                    dotted = dotted_name(base, module.aliases)
                    if dotted is None:
                        continue
                    resolved = self.resolve_dotted(dotted, module.path)
                    if resolved is not None and resolved[0] == "class":
                        klass.bases.append(resolved[1].cid)  # type: ignore[union-attr]
                    else:
                        klass.bases.append(dotted)
                self._infer_attr_types(module, klass)

    def _infer_attr_types(self, module: ModuleSymbols, klass: ClassSymbol) -> None:
        for method in klass.methods.values():
            for stmt in ast.walk(method.node):
                if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                constructed = self._constructed_class(stmt.value, module)
                if constructed is not None:
                    klass.attr_types[target.attr] = constructed.cid

    def _constructed_class(
        self, value: ast.expr, module: ModuleSymbols
    ) -> ClassSymbol | None:
        """The project class instantiated by ``value``, if it is ``Cls(...)``."""
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func, module.aliases)
        if dotted is None:
            return None
        resolved = self.resolve_dotted(dotted, module.path)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]  # type: ignore[return-value]
        return None

    # -- lookup ----------------------------------------------------------------

    def module_at(self, package_path: str) -> ModuleSymbols | None:
        return self.modules.get(package_path)

    def resolve_dotted(
        self, dotted: str, current_module: str, _hops: int = 0
    ) -> Resolution | None:
        """Resolve a dotted path to a project function, class or module.

        Handles absolute package paths (``repro.experiments.sweep.SweepRunner``
        or the package-relative ``experiments.sweep.SweepRunner``), relative
        imports carried by the alias map (``..errors.ConfigurationError``
        seen from ``experiments/sweep.py``), and re-exports: a name bound in
        an ``__init__`` module by ``from .sweep import SweepRunner`` resolves
        through to the defining module. Returns ``None`` for anything outside
        the project — callers treat that as an external/unknown target.
        """
        if _hops > _MAX_REEXPORT_HOPS:
            return None
        # A bare (un-aliased) name binds to the current module's own namespace
        # first — Python scoping, and required for ``class Sub(Base)`` where
        # ``Base`` is defined earlier in the same file.
        if not dotted.startswith("."):
            local = self.modules.get(current_module)
            head = dotted.split(".", 1)[0]
            if local is not None and (
                head in local.functions or head in local.classes
            ):
                return self._resolve_in_module(local, dotted.split("."), _hops)
        parts = self._normalize(dotted, current_module)
        if parts is None:
            return None
        # Longest prefix naming a project module wins; the remainder is looked
        # up inside it.
        for split in range(len(parts), 0, -1):
            prefix = ".".join(parts[:split])
            module_path = self._by_dotted.get(prefix)
            if module_path is None:
                continue
            module = self.modules[module_path]
            return self._resolve_in_module(module, parts[split:], _hops)
        # Names re-exported from the package root ("repro.Scenario"): try the
        # root __init__ module before declaring the path external.
        root_path = self._by_dotted.get("")
        if root_path is not None:
            return self._resolve_in_module(self.modules[root_path], parts, _hops)
        return None

    def _normalize(self, dotted: str, current_module: str) -> list[str] | None:
        """Split a dotted path into package-relative parts, or ``None``."""
        if dotted.startswith("."):
            level = len(dotted) - len(dotted.lstrip("."))
            remainder = dotted.lstrip(".")
            package = current_module.rsplit("/", 1)[0] if "/" in current_module else ""
            parts = package.split("/") if package else []
            ups = level - 1
            if ups > len(parts):
                return None
            if ups:
                parts = parts[:-ups]
            return parts + (remainder.split(".") if remainder else [])
        parts = dotted.split(".")
        if parts[0] == "repro":
            parts = parts[1:]
            return parts if parts else None
        # Package-relative absolute paths ("experiments.sweep") and top-level
        # module names ("errors") are accepted as-is; anything whose first
        # component is not a project module falls out of resolution naturally.
        return parts

    def _resolve_in_module(
        self, module: ModuleSymbols, rest: Sequence[str], hops: int
    ) -> Resolution | None:
        if not rest:
            return ("module", module)
        head = rest[0]
        if head in module.functions and len(rest) == 1:
            return ("function", module.functions[head])
        if head in module.classes:
            klass = module.classes[head]
            if len(rest) == 1:
                return ("class", klass)
            if len(rest) == 2:
                method = self.resolve_method(klass, rest[1])
                if method is not None:
                    return ("function", method)
            return None
        # Re-export: the name is bound by an import in this module (the
        # ``from .sweep import SweepRunner`` idiom in __init__ files).
        alias = module.aliases.get(head)
        if alias is not None:
            target = ".".join([alias, *rest[1:]])
            return self.resolve_dotted(target, module.path, hops + 1)
        return None

    def resolve_method(self, klass: ClassSymbol, name: str) -> FunctionSymbol | None:
        """Look ``name`` up on ``klass``, then along its project base chain."""
        seen: set[str] = set()
        stack = [klass]
        while stack:
            current = stack.pop(0)
            if current.cid in seen:
                continue
            seen.add(current.cid)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                base_class = self.classes.get(base)
                if base_class is not None:
                    stack.append(base_class)
        return None
