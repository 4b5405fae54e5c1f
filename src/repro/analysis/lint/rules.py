"""The built-in ``repro lint`` rules.

Each rule encodes one invariant the repository's correctness story already
depends on informally:

* **DET001–DET004** protect the bit-for-bit golden files: the deterministic
  layers (``sim/``, ``core/``, ``uvm/``, ``ssd/``, ``graph/``,
  ``baselines/``) must be pure functions of the workload and configuration —
  no wall clocks, no entropy, no object identities, no unordered iteration,
  no approximate float equality.
* **PERF001** keeps numpy code numpy: ``core/`` and ``sim/`` must not walk a
  numpy array element by element in a Python loop.

Rules self-register into :data:`~repro.analysis.lint.framework.LINT_REGISTRY`
when this module is imported (it is the registry's bootstrap module).
"""

from __future__ import annotations

import ast

from .framework import (
    DETERMINISTIC_LAYERS,
    LintRule,
    ModuleSource,
    dotted_name,
    import_aliases,
    register_rule,
)

__all__ = ["dotted_name", "import_aliases"]  # re-exported for compatibility


@register_rule(
    "DET001",
    title="no wall clock or entropy in the deterministic layers",
    rationale="golden files are bit-for-bit; any clock/entropy read breaks them",
)
class NoEntropyRule(LintRule):
    """Bans wall-clock and entropy reads inside the deterministic layers.

    The simulated clock is the only clock those layers may consult; the rule
    has no exception. Host time is measured from outside them (``perfbench/``).
    """

    code = "DET001"
    title = "no wall clock or entropy in the deterministic layers"
    rationale = "golden files are bit-for-bit; any clock/entropy read breaks them"

    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "date.today",
            "os.urandom",
            "os.getrandom",
            "uuid.uuid1",
            "uuid.uuid4",
        }
    )

    #: Module-level functions of the process-global ``random`` RNG. Policies
    #: needing noise must take a seeded ``random.Random`` (or numpy
    #: ``Generator``) instance from their configuration instead.
    RANDOM_FUNCS = frozenset(
        {
            "betavariate", "choice", "choices", "expovariate", "gauss",
            "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
            "randbytes", "randint", "random", "randrange", "sample", "seed",
            "shuffle", "triangular", "uniform", "vonmisesvariate",
            "weibullvariate",
        }
    )

    #: Modules whose ``from X import *`` would smuggle banned callables in as
    #: bare names; a star import of one expands the alias map with every
    #: banned member so ``from time import *; time()`` still resolves.
    STAR_MODULES = frozenset({"time", "datetime", "os", "uuid", "random"})

    @classmethod
    def matches(cls, dotted: str) -> bool:
        """Whether a resolved dotted path names a banned entropy source."""
        if dotted in cls.BANNED:
            return True
        if dotted.startswith("random.") and dotted.split(".", 1)[1] in cls.RANDOM_FUNCS:
            return True
        return dotted.startswith("numpy.random.") or dotted.startswith("np.random.")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_layers(DETERMINISTIC_LAYERS)

    def begin(self, module: ModuleSource) -> None:
        self._aliases = import_aliases(module.tree)
        self._expand_star_imports(module.tree)
        # AST nodes hash by identity, so the set members are the func nodes
        # themselves (an id()-keyed set would trip DET002).
        self._call_funcs = {
            call.func for call in ast.walk(module.tree) if isinstance(call, ast.Call)
        }

    def _expand_star_imports(self, tree: ast.Module) -> None:
        starred = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module in self.STAR_MODULES
            and any(alias.name == "*" for alias in node.names)
        }
        if not starred:
            return
        expanded: dict[str, str] = {}
        for dotted in self.BANNED:
            head, _, rest = dotted.partition(".")
            if head in starred and rest:
                member = rest.split(".")[0]
                expanded.setdefault(member, f"{head}.{member}")
        if "random" in starred:
            for name in self.RANDOM_FUNCS:
                expanded.setdefault(name, f"random.{name}")
        # Explicit imports win over the star expansion.
        self._aliases = {**expanded, **self._aliases}

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func, self._aliases)
        if name is not None and self.matches(name):
            self.report(
                node,
                f"call to {name}() in a deterministic layer; the simulated "
                "clock and seeded generators are the only allowed sources",
            )
        self.generic_visit(node)

    def _check_reference(self, node: ast.expr) -> None:
        """Flag a banned callable captured as a value rather than called.

        ``clock = time.time`` (or passing ``time`` from a from-import as a
        callback) injects the entropy source just as surely as calling it —
        deferred by one hop.
        """
        if node in self._call_funcs:
            return  # the call form is visit_Call's report
        name = dotted_name(node, self._aliases)
        if name is not None and self.matches(name):
            self.report(
                node,
                f"reference to {name} captured without a call; storing the "
                "callable still routes wall-clock/entropy into a "
                "deterministic layer",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_reference(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_reference(node)
        self.generic_visit(node)


def _is_id_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
    )


@register_rule(
    "DET002",
    title="no id(...) used as a dict or memo key",
    rationale="CPython addresses vary run to run; id-keyed memos break caching and replay",
)
class NoIdKeyRule(LintRule):
    """Bans ``id(...)`` in key positions (the exact bug PR 1 fixed in
    ``build_workload``: an ``id(config)``-keyed memo made cache keys depend on
    allocator addresses)."""

    code = "DET002"
    title = "no id(...) used as a dict or memo key"
    rationale = "CPython addresses vary run to run; id-keyed memos break caching and replay"

    MESSAGE = (
        "id(...) used as a key; key on a value hash or the object itself "
        "(identity hashing without the address leaking into results)"
    )

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and _is_id_call(key):
                self.report(key, self.MESSAGE)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if _is_id_call(node.key):
            self.report(node.key, self.MESSAGE)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_id_call(node.slice):
            self.report(node.slice, self.MESSAGE)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault", "pop")
            and node.args
            and _is_id_call(node.args[0])
        ):
            self.report(node.args[0], self.MESSAGE)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if _is_id_call(node.left) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            self.report(node.left, self.MESSAGE)
        self.generic_visit(node)


@register_rule(
    "DET003",
    title="no ordered iteration over bare set values",
    rationale="set order varies with hash seeding/history; results and schedules must not inherit it",
)
class NoSetIterationRule(LintRule):
    """Flags order-sensitive iteration over values statically known to be sets.

    Inside the deterministic layers, a ``for`` loop, list/dict comprehension,
    generator expression or ``list()/tuple()/enumerate()/iter()/map()/
    filter()/join()`` over a bare set leaks the set's arbitrary order into
    whatever gets built from it. The compliant idiom is ``sorted(...)`` (or an
    ordered container to begin with). Set comprehensions over sets stay
    order-insensitive and are allowed, as are ``len``/``min``/``max``/``sum``/
    ``any``/``all`` and membership tests.

    Detection is intraprocedural: set literals, ``set()``/``frozenset()``
    calls, set comprehensions, unions of those, and local names last assigned
    from one.
    """

    code = "DET003"
    title = "no ordered iteration over bare set values"
    rationale = (
        "set order varies with hash seeding/history; results and schedules "
        "must not inherit it"
    )

    ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})
    ORDER_SENSITIVE_SECOND_ARG = frozenset({"map", "filter"})
    SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference", "copy"}
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_layers(DETERMINISTIC_LAYERS)

    def begin(self, module: ModuleSource) -> None:
        self._scopes: list[set[str]] = [set()]

    # -- set-ness inference ---------------------------------------------------

    def _is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._scopes)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.SET_METHODS
                and self._is_setish(node.func.value)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setish(node.left) and self._is_setish(node.right)
        return False

    def _bind(self, target: ast.expr, setish: bool) -> None:
        if isinstance(target, ast.Name):
            if setish:
                self._scopes[-1].add(target.id)
            else:
                self._scopes[-1].discard(target.id)

    # -- scope tracking -------------------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        setish = self._is_setish(node.value)
        for target in node.targets:
            self._bind(target, setish)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, self._is_setish(node.value))

    # -- order-sensitive sinks ------------------------------------------------

    def _check_iter(self, node: ast.expr) -> None:
        if self._is_setish(node):
            self.report(
                node,
                "iteration over a bare set leaks arbitrary ordering; wrap it "
                "in sorted(...) or use an ordered container",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_ordered_comp(self, node: ast.AST) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_ordered_comp
    visit_GeneratorExp = _visit_ordered_comp
    visit_DictComp = _visit_ordered_comp

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and node.args:
            if func.id in self.ORDER_SENSITIVE_CALLS:
                self._check_iter(node.args[0])
            elif func.id in self.ORDER_SENSITIVE_SECOND_ARG and len(node.args) >= 2:
                self._check_iter(node.args[1])
        elif isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            self._check_iter(node.args[0])
        self.generic_visit(node)


@register_rule(
    "DET004",
    title="no float equality in core/sim outside annotated sentinels",
    rationale="float == is usually a tolerance bug; exact-float sentinels must be named and annotated",
)
class NoFloatEqualityRule(LintRule):
    """Flags ``==``/``!=`` against float literals in ``core/`` and ``sim/``.

    Exact float comparison is almost always a latent tolerance bug in planner
    arithmetic. Where exactness is the *point* — e.g. the path-compressed
    skip index in ``core/bandwidth.py``, where an exhausted slot holds exactly
    ``0.0`` — the sentinel must be a named module-level constant annotated
    with ``# repro-lint: exact-float`` on its assignment; comparisons against
    annotated sentinels are allowed.
    """

    code = "DET004"
    title = "no float equality in core/sim outside annotated sentinels"
    rationale = (
        "float == is usually a tolerance bug; exact-float sentinels must be "
        "named and annotated"
    )

    LAYERS = ("core/", "sim/")

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_layers(self.LAYERS)

    def begin(self, module: ModuleSource) -> None:
        self._sentinels: set[str] = set()
        self._unannotated_consts: set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if isinstance(target, ast.Name) and _is_float_literal(value):
                if module.annotated(node.lineno, "exact-float"):
                    self._sentinels.add(target.id)
                else:
                    self._unannotated_consts.add(target.id)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[index], operands[index + 1]):
                if _is_float_literal(side):
                    self.report(
                        side,
                        "exact float comparison; use a tolerance, or compare "
                        "against a named sentinel annotated "
                        "'# repro-lint: exact-float'",
                    )
                elif isinstance(side, ast.Name) and side.id in self._unannotated_consts:
                    self.report(
                        side,
                        f"float constant {side.id} compared exactly; annotate "
                        "its assignment with '# repro-lint: exact-float' if "
                        "exactness is intended",
                    )
        self.generic_visit(node)


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register_rule(
    "PERF001",
    title="no per-element Python loops over numpy arrays in core/sim",
    rationale="an element-wise Python loop over a numpy array pays boxing and dispatch per element",
)
class NoScalarArrayLoopRule(LintRule):
    """Flags ``for`` loops (and ordered comprehensions) iterating a value
    statically known to be a numpy array in ``core/`` and ``sim/``.

    Iterating a numpy array element-by-element pays boxing plus dispatch per
    element. The compliant idioms are whole-array numpy operations (the
    pressure excess curve in ``core/pressure.py``), or — where a sequential
    early-exit walk is genuinely needed — plain Python lists, converted once
    with ``.tolist()`` (the channel walks in ``core/bandwidth.py``).

    Detection mirrors DET003's intraprocedural inference, tracking
    array-ness instead of set-ness: ``np.*`` array constructors/elementwise
    calls, slices of known arrays, array methods returning arrays, and local
    names last assigned from one. ``.tolist()`` / ``.item()`` and scalar
    reductions break the taint, so the chunked-scan idiom passes clean.
    """

    code = "PERF001"
    title = "no per-element Python loops over numpy arrays in core/sim"
    rationale = (
        "an element-wise Python loop over a numpy array pays boxing and "
        "dispatch per element"
    )

    LAYERS = ("core/", "sim/")

    #: ``numpy.*`` callables that return arrays (constructors + elementwise).
    ARRAY_FUNCS = frozenset(
        {
            "array", "asarray", "ascontiguousarray", "zeros", "zeros_like",
            "ones", "ones_like", "empty", "empty_like", "full", "full_like",
            "arange", "linspace", "concatenate", "stack", "hstack", "vstack",
            "minimum", "maximum", "clip", "where", "cumsum", "cumprod",
            "diff", "sort", "argsort", "flatnonzero", "nonzero", "abs",
            "sqrt", "floor", "ceil", "rint", "exp", "log",
        }
    )

    #: Array methods that return arrays (keep the taint flowing).
    ARRAY_METHODS = frozenset(
        {"copy", "astype", "clip", "cumsum", "round", "reshape", "ravel"}
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_layers(self.LAYERS)

    def begin(self, module: ModuleSource) -> None:
        self._aliases = import_aliases(module.tree)
        self._scopes: list[set[str]] = [set()]

    # -- array-ness inference -------------------------------------------------

    def _is_arrayish(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._scopes)
        if isinstance(node, ast.Call):
            func = node.func
            dotted = dotted_name(func, self._aliases)
            if (
                dotted is not None
                and dotted.startswith("numpy.")
                and dotted.split(".", 1)[1] in self.ARRAY_FUNCS
            ):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.ARRAY_METHODS
                and self._is_arrayish(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.Subscript):
            # A slice of an array is an array view; an indexed element is a
            # scalar, so only slice subscripts keep the taint.
            return isinstance(node.slice, ast.Slice) and self._is_arrayish(node.value)
        if isinstance(node, ast.BinOp):
            # Elementwise arithmetic on an array yields an array.
            return self._is_arrayish(node.left) or self._is_arrayish(node.right)
        return False

    def _bind(self, target: ast.expr, arrayish: bool) -> None:
        if isinstance(target, ast.Name):
            if arrayish:
                self._scopes[-1].add(target.id)
            else:
                self._scopes[-1].discard(target.id)

    # -- scope tracking -------------------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        arrayish = self._is_arrayish(node.value)
        for target in node.targets:
            self._bind(target, arrayish)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, self._is_arrayish(node.value))

    # -- per-element sinks ----------------------------------------------------

    MESSAGE = (
        "per-element Python loop over a numpy array; use whole-array numpy "
        "operations, or walk a small .tolist() chunk when a sequential "
        "early-exit scan is required"
    )

    def _check_iter(self, node: ast.expr) -> None:
        if self._is_arrayish(node):
            self.report(node, self.MESSAGE)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_ordered_comp(self, node: ast.AST) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_ordered_comp
    visit_GeneratorExp = _visit_ordered_comp
    visit_DictComp = _visit_ordered_comp
