"""The determinism rules (D1-D6).

Each rule is a pure function over one parsed module plus a small amount
of shared context (import aliases, scope classification).  The rules are
deliberately syntactic: they under-approximate (no data-flow across
modules, one level of local-name tracking) and lean on the pragma escape
hatch for the rare justified exception, because a linter that needs a
type checker to run stops being a pre-test gate.

Scopes (see ``engine.classify_scopes``):

* ``library``  -- ``src/`` + ``scripts/`` + ``examples/``: the paths whose
  bytes reach stores, traces and fingerprints.  D2/D3/D5 apply here.
* ``tests``    -- ``tests/`` + ``benchmarks/``: D1/D4/D6 still apply
  (tests must not depend on global RNG either), but wall-clock reads and
  ad-hoc JSON are fine.
* ``simulator`` -- ``src/repro/simulation/cluster.py``: rule D4 runs its
  *internal* audit here, cross-referencing method bodies against
  ``repro.simulation.invariants``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.findings import Finding
from repro.simulation import invariants

LIBRARY_SCOPES = frozenset({"library", "simulator"})

WALL_CLOCK_TIME_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
        "localtime",
        "gmtime",
        "ctime",
        "asctime",
    }
)
DATETIME_WALL_METHODS = frozenset({"now", "utcnow", "today"})
SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "reversed"})
CONTAINER_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault"}
)
SET_MUTATING_METHODS = frozenset({"add", "discard", "remove", "update", "clear", "pop"})
SOLVER_RECEIVER_HINTS = frozenset(
    {"node", "nodes", "region", "regions", "binding", "bindings", "simulator", "sim"}
)
GUARDED_ATTRIBUTES = (
    invariants.GUARDED_NODE_ATTRIBUTES
    | invariants.GUARDED_REGION_ATTRIBUTES
    | invariants.GUARDED_BINDING_ATTRIBUTES
)
CHANNEL_MARKER = "__mergeable_integer_channels__"


@dataclass
class ImportMap:
    """Local names bound to the modules/functions the rules care about."""

    time_modules: set[str] = field(default_factory=set)
    time_functions: dict[str, str] = field(default_factory=dict)
    datetime_modules: set[str] = field(default_factory=set)
    datetime_classes: set[str] = field(default_factory=set)
    random_modules: set[str] = field(default_factory=set)
    random_functions: dict[str, str] = field(default_factory=dict)
    numpy_modules: set[str] = field(default_factory=set)
    numpy_random_modules: set[str] = field(default_factory=set)
    json_modules: set[str] = field(default_factory=set)
    json_functions: dict[str, str] = field(default_factory=dict)


def collect_imports(tree: ast.AST) -> ImportMap:
    imports = ImportMap()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if alias.name == "time":
                    imports.time_modules.add(bound)
                elif alias.name == "datetime":
                    imports.datetime_modules.add(bound)
                elif alias.name == "random":
                    imports.random_modules.add(bound)
                elif alias.name == "numpy":
                    imports.numpy_modules.add(bound)
                elif alias.name == "numpy.random" and alias.asname:
                    imports.numpy_random_modules.add(alias.asname)
                elif alias.name == "json":
                    imports.json_modules.add(bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module == "time":
                    imports.time_functions[bound] = alias.name
                elif node.module == "random":
                    imports.random_functions[bound] = alias.name
                elif node.module == "datetime" and alias.name in {"datetime", "date"}:
                    imports.datetime_classes.add(bound)
                elif node.module == "json" and alias.name in {"dumps", "dump"}:
                    imports.json_functions[bound] = alias.name
                elif node.module == "numpy" and alias.name == "random":
                    imports.numpy_random_modules.add(bound)
    return imports


@dataclass
class ModuleContext:
    rel_path: str
    tree: ast.Module
    scopes: frozenset[str]
    imports: ImportMap

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(self.rel_path, getattr(node, "lineno", 1), rule, message)


# --------------------------------------------------------------------------
# D1: unseeded / global randomness
# --------------------------------------------------------------------------

def check_d1(ctx: ModuleContext) -> Iterator[Finding]:
    imports = ctx.imports
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id in imports.random_modules:
                if func.attr != "Random":
                    yield ctx.finding(
                        node,
                        "D1",
                        f"global RNG call random.{func.attr}(): draw from a seeded "
                        "repro.util.rng.make_rng(...) instance instead",
                    )
            elif _is_numpy_random(value, imports):
                seeded_factory = func.attr == "default_rng" and (node.args or node.keywords)
                if not seeded_factory:
                    yield ctx.finding(
                        node,
                        "D1",
                        f"numpy global RNG call np.random.{func.attr}(): use "
                        "numpy.random.default_rng(seed) and pass the generator around",
                    )
        elif isinstance(func, ast.Name) and func.id in imports.random_functions:
            target = imports.random_functions[func.id]
            if target != "Random":
                yield ctx.finding(
                    node,
                    "D1",
                    f"global RNG call random.{target} (imported as {func.id}): draw "
                    "from a seeded repro.util.rng.make_rng(...) instance instead",
                )


def _is_numpy_random(value: ast.expr, imports: ImportMap) -> bool:
    if isinstance(value, ast.Name) and value.id in imports.numpy_random_modules:
        return True
    return (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in imports.numpy_modules
    )


# --------------------------------------------------------------------------
# D2: wall-clock reads in deterministic paths
# --------------------------------------------------------------------------

_D2_REMEDY = (
    "; route measurement through repro.util.wallclock or justify with "
    "`# repro: allow(D2, reason=...)`"
)


def check_d2(ctx: ModuleContext) -> Iterator[Finding]:
    imports = ctx.imports
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_FUNCTIONS:
                    yield ctx.finding(
                        node,
                        "D2",
                        f"`from time import {alias.name}` binds a wall-clock reader"
                        + _D2_REMEDY,
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                if (
                    isinstance(value, ast.Name)
                    and value.id in imports.time_modules
                    and func.attr in WALL_CLOCK_TIME_FUNCTIONS
                ):
                    yield ctx.finding(
                        node, "D2", f"wall-clock read time.{func.attr}()" + _D2_REMEDY
                    )
                elif func.attr in DATETIME_WALL_METHODS and _is_datetime_class(value, imports):
                    yield ctx.finding(
                        node,
                        "D2",
                        f"wall-clock read datetime.{func.attr}()" + _D2_REMEDY,
                    )
            elif (
                isinstance(func, ast.Name)
                and imports.time_functions.get(func.id) in WALL_CLOCK_TIME_FUNCTIONS
            ):
                yield ctx.finding(
                    node,
                    "D2",
                    f"wall-clock read {func.id}() (= time.{imports.time_functions[func.id]})"
                    + _D2_REMEDY,
                )


def _is_datetime_class(value: ast.expr, imports: ImportMap) -> bool:
    if isinstance(value, ast.Name) and value.id in imports.datetime_classes:
        return True
    return (
        isinstance(value, ast.Attribute)
        and value.attr in {"datetime", "date"}
        and isinstance(value.value, ast.Name)
        and value.value.id in imports.datetime_modules
    )


# --------------------------------------------------------------------------
# D3: iteration over unordered sets feeding order-sensitive consumers
# --------------------------------------------------------------------------

def _collect_set_names(tree: ast.AST) -> set[str]:
    """Local names that are only ever assigned set-valued expressions.

    Two passes so ``s2 = s1 | {x}`` is recognised once ``s1`` is known;
    a name ever rebound to a non-set drops out (conservative).
    """

    status: dict[str, bool] = {}
    for _ in range(2):
        known = {name for name, ok in status.items() if ok}
        status = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    is_set = _is_set_valued(node.value, known)
                    status[target.id] = status.get(target.id, True) and is_set
    return {name for name, ok in status.items() if ok}


def _is_set_valued(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SET_RETURNING_METHODS
            and _is_set_valued(func.value, set_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPERATORS):
        return _is_set_valued(node.left, set_names) or _is_set_valued(node.right, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        return node.attr in invariants.ORDER_SENSITIVE_SET_ATTRIBUTES
    return False


_D3_MESSAGE = (
    "iteration order over a set is PYTHONHASHSEED-dependent; wrap the "
    "iterable in sorted(...) before it feeds ordering-sensitive output"
)


def check_d3(ctx: ModuleContext) -> Iterator[Finding]:
    set_names = _collect_set_names(ctx.tree)

    def hazardous(expr: ast.expr) -> bool:
        return _is_set_valued(expr, set_names)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and hazardous(node.iter):
            yield ctx.finding(node, "D3", _D3_MESSAGE)
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if hazardous(generator.iter):
                    yield ctx.finding(node, "D3", _D3_MESSAGE)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ORDER_SENSITIVE_CONSUMERS
                and node.args
                and hazardous(node.args[0])
            ):
                yield ctx.finding(node, "D3", f"{func.id}() over a set: " + _D3_MESSAGE)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and hazardous(node.args[0])
            ):
                yield ctx.finding(node, "D3", "str.join over a set: " + _D3_MESSAGE)


# --------------------------------------------------------------------------
# D4: the mutator audit (dirty-signature discipline)
# --------------------------------------------------------------------------

def _assignment_targets(node: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        stack: list[ast.expr] = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif isinstance(node, ast.Delete):
        stack = list(node.targets)
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        else:
            yield target


def _container_attr(target: ast.expr) -> str | None:
    """`...nodes[k]`-style write target -> the container attribute name."""

    if (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Attribute)
        and target.value.attr in invariants.SOLVER_STATE_CONTAINERS
    ):
        return target.value.attr
    return None


def _hooked_in_place_call(node: ast.AST) -> bool:
    """``<expr>.block_homes.add(...)``-style in-place mutation of a hooked
    region attribute: ``__setattr__`` never sees it, so nothing is bumped."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SET_MUTATING_METHODS
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr in invariants.HOOKED_REGION_ATTRIBUTES
    )


def _calls_in(node: ast.AST, names: frozenset[str]) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr in names
        for sub in ast.walk(node)
    )


def check_d4(ctx: ModuleContext) -> Iterator[Finding]:
    if "simulator" in ctx.scopes:
        yield from _check_d4_simulator(ctx)
    else:
        yield from _check_d4_callers(ctx)


def _check_d4_simulator(ctx: ModuleContext) -> Iterator[Finding]:
    cls = next(
        (
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef) and node.name == "ClusterSimulator"
        ),
        None,
    )
    if cls is None:
        yield Finding(
            ctx.rel_path,
            1,
            "D4",
            "file is scoped `simulator` but defines no ClusterSimulator class",
        )
        return
    methods = {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for declared in sorted(invariants.DECLARED_MUTATORS):
        if declared not in methods:
            yield Finding(
                ctx.rel_path,
                cls.lineno,
                "D4",
                f"stale inventory: invariants declares mutator {declared!r} but "
                "ClusterSimulator has no such method",
            )
    for name, method in methods.items():
        if name in invariants.DIRTY_MARKERS or name in invariants.TICK_MACHINERY:
            continue
        mutation_lines: list[int] = []
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                for target in _assignment_targets(node):
                    if _container_attr(target) is not None:
                        mutation_lines.append(node.lineno)
                    elif isinstance(target, ast.Attribute):
                        if target.attr in GUARDED_ATTRIBUTES:
                            mutation_lines.append(node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CONTAINER_MUTATING_METHODS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in invariants.SOLVER_STATE_CONTAINERS
            ) or _hooked_in_place_call(node):
                mutation_lines.append(node.lineno)
        if not mutation_lines:
            continue
        if name not in invariants.DECLARED_MUTATORS:
            yield Finding(
                ctx.rel_path,
                method.lineno,
                "D4",
                f"ClusterSimulator.{name} mutates solver-feeding state (line"
                f" {mutation_lines[0]}) but is not declared in "
                "repro.simulation.invariants -- declare it or route through a mutator",
            )
        elif not _calls_in(
            method, invariants.DIRTY_MARKERS | invariants.DECLARED_MUTATORS
        ):
            yield Finding(
                ctx.rel_path,
                method.lineno,
                "D4",
                f"declared mutator ClusterSimulator.{name} never calls a dirty "
                "marker (invalidate_solution/_mark_dirty/_mark_structure) or a "
                "fellow declared mutator",
            )


def _receiver_hints_solver_state(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in SOLVER_RECEIVER_HINTS:
            return True
        if isinstance(node, ast.Attribute) and node.attr in invariants.SOLVER_STATE_CONTAINERS:
            return True
    return False


def _check_d4_callers(ctx: ModuleContext) -> Iterator[Finding]:
    discharge = invariants.DIRTY_MARKERS | invariants.DECLARED_MUTATORS
    regions: list[tuple[int, int]] = []
    if _calls_in(ctx.tree, discharge):
        # Module-level code counts as one region only if the discharge call
        # is itself at module level (outside any function).
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _calls_in(stmt, discharge):
                    regions.append((1, max(1, ctx.tree.body[-1].end_lineno or 1)))
                    break
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_in(
            node, discharge
        ):
            regions.append((node.lineno, node.end_lineno or node.lineno))

    def discharged(line: int) -> bool:
        return any(start <= line <= end for start, end in regions)

    for node in ast.walk(ctx.tree):
        if _hooked_in_place_call(node) and not discharged(node.lineno):
            yield ctx.finding(
                node,
                "D4",
                f"in-place .{node.func.value.attr}.{node.func.attr}() bypasses "
                "the SimulatedRegion __setattr__ hook with no "
                "invalidate_solution()/declared-mutator call in the enclosing "
                "function -- assign a new value or invalidate",
            )
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        for target in _assignment_targets(node):
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr not in GUARDED_ATTRIBUTES:
                continue
            if target.attr in invariants.HOOKED_REGION_ATTRIBUTES:
                continue
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                continue  # other classes' own attributes
            if not _receiver_hints_solver_state(target.value):
                continue
            line = node.lineno
            if discharged(line):
                continue
            yield Finding(
                ctx.rel_path,
                line,
                "D4",
                f"direct write to solver-feeding attribute .{target.attr} with no "
                "invalidate_solution()/declared-mutator call in the enclosing "
                "function -- the cached fixed-point solution goes stale",
            )


# --------------------------------------------------------------------------
# D5: non-canonical JSON
# --------------------------------------------------------------------------

def check_d5(ctx: ModuleContext) -> Iterator[Finding]:
    imports = ctx.imports
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name: str | None = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in {"dumps", "dump"}
            and isinstance(func.value, ast.Name)
            and func.value.id in imports.json_modules
        ):
            name = func.attr
        elif isinstance(func, ast.Name) and func.id in imports.json_functions:
            name = imports.json_functions[func.id]
        if name is None:
            continue
        blessed = False
        for keyword in node.keywords:
            if keyword.arg is None:  # **kwargs splat: assume the caller knows
                blessed = True
            elif keyword.arg == "sort_keys":
                blessed = isinstance(keyword.value, ast.Constant) and keyword.value.value is True
        if not blessed:
            yield ctx.finding(
                node,
                "D5",
                f"json.{name} without sort_keys=True: dict-insertion-ordered bytes "
                "are not canonical; stores/traces/fingerprints must sort keys",
            )


# --------------------------------------------------------------------------
# D6: float accumulation into mergeable integer channels
# --------------------------------------------------------------------------

def _channel_names(cls: ast.ClassDef) -> frozenset[str] | None:
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == CHANNEL_MARKER
            and isinstance(stmt.value, (ast.Tuple, ast.List))
        ):
            names = [
                elt.value
                for elt in stmt.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
            return frozenset(names)
    return None


def _float_hazard(value: ast.expr, float_names: set[str]) -> str | None:
    for node in ast.walk(value):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "true division (/)"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            return "float() cast"
        if isinstance(node, ast.Name) and node.id in float_names:
            return f"float-typed name {node.id!r}"
    return None


def check_d6(ctx: ModuleContext) -> Iterator[Finding]:
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        channels = _channel_names(cls)
        if not channels:
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            float_names = {
                arg.arg
                for arg in [
                    *method.args.posonlyargs,
                    *method.args.args,
                    *method.args.kwonlyargs,
                ]
                if isinstance(arg.annotation, ast.Name) and arg.annotation.id == "float"
            }
            aliases: set[str] = set()
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                    and node.value.attr in channels
                ):
                    aliases.add(node.targets[0].id)

            def is_channel_write(target: ast.expr) -> bool:
                if not isinstance(target, ast.Subscript):
                    return False
                base = target.value
                if isinstance(base, ast.Name):
                    return base.id in aliases
                return (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                    and base.attr in channels
                )

            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AugAssign)):
                    continue
                if not any(is_channel_write(t) for t in _assignment_targets(node)):
                    continue
                hazard = _float_hazard(node.value, float_names)
                if hazard is not None:
                    yield ctx.finding(
                        node,
                        "D6",
                        f"{hazard} accumulated into mergeable integer channel of "
                        f"{cls.name}: merge/scale stay bit-exact only for ints -- "
                        "quantise first (LatencySummary.WEIGHT_SCALE style)",
                    )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    summary: str
    scopes: frozenset[str] | None  # None = every scope
    check: Callable[[ModuleContext], Iterable[Finding]]

    def applies(self, scopes: frozenset[str]) -> bool:
        return self.scopes is None or bool(self.scopes & scopes)


RULES: tuple[RuleSpec, ...] = (
    RuleSpec("D1", "unseeded / global randomness", None, check_d1),
    RuleSpec("D2", "wall-clock reads in deterministic paths", LIBRARY_SCOPES, check_d2),
    RuleSpec("D3", "unordered set iteration feeding ordered output", LIBRARY_SCOPES, check_d3),
    RuleSpec("D4", "mutator audit against the declared inventory", None, check_d4),
    RuleSpec("D5", "non-canonical JSON (missing sort_keys=True)", LIBRARY_SCOPES, check_d5),
    RuleSpec("D6", "float accumulation into mergeable integer channels", None, check_d6),
)

RULE_IDS: frozenset[str] = frozenset(spec.rule_id for spec in RULES)
