"""The DES-aware rules: SIM001-SIM006.

Every rule is motivated by a bug class this repo has actually shipped and
fixed (see ``CHANGES.md`` and the "Static analysis & sanitizer" section of
``DESIGN.md``).  Rules are deliberately syntactic -- no type inference --
and err toward silence on constructs they cannot classify: a lint pass
that cries wolf gets disabled, and the runtime sanitizer backstops what
static analysis cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.analysis.simlint import cfg
from repro.analysis.simlint.config import SimlintConfig
from repro.analysis.simlint.core import Finding, SourceFile


@dataclass(frozen=True)
class Rule:
    """One lint rule: a code, human docs, and a checker function."""

    code: str
    name: str
    summary: str
    doc: str
    check: Callable[[SourceFile, SimlintConfig], list[Finding]]


def _finding(source: SourceFile, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=source.path,
        line=node.lineno,
        col=node.col_offset,
        code=code,
        message=message,
    )


def _own_nodes(func: ast.AST, reachable_only: bool = False) -> Iterator[ast.AST]:
    """Walk a function's nodes without descending into nested def/class.

    With ``reachable_only``, ``if False:`` / ``if 0:`` bodies are skipped --
    the standard idiom for forcing a function to be a generator
    (``if False: yield``) must not trip yield-value rules.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        if (
            reachable_only
            and isinstance(node, ast.If)
            and isinstance(node.test, ast.Constant)
            and not node.test.value
        ):
            stack.append(node.test)
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_nodes(func)
    )


def _functions(tree: ast.Module) -> Iterator[tuple[ast.FunctionDef, ast.ClassDef | None]]:
    """Every function definition, paired with its enclosing class (if any)."""

    def visit(node: ast.AST, enclosing: ast.ClassDef | None) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, enclosing
                yield from visit(child, None)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            else:
                yield from visit(child, enclosing)

    yield from visit(tree, None)


def _call_name(func: ast.expr) -> str | None:
    """The trailing identifier of a call target (``a.b.c(...)`` -> ``"c"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# --- SIM001: processes must yield events -----------------------------------------

#: Yield values that cannot possibly be Event instances.
_NON_EVENT_YIELDS = (
    ast.Constant,
    ast.JoinedStr,
    ast.List,
    ast.Tuple,
    ast.Set,
    ast.Dict,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.BinOp,
    ast.UnaryOp,
    ast.BoolOp,
    ast.Compare,
    ast.Lambda,
)


def _process_generator_names(tree: ast.Module) -> set[str]:
    """Names of generators registered as sim processes within this module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _call_name(node.func)
        if target not in {"process", "Process"}:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Call):
                inner = _call_name(arg.func)
                if inner:
                    names.add(inner)
            else:
                inner = _call_name(arg)
                if inner:
                    names.add(inner)
    return names


def check_sim001(source: SourceFile, config: SimlintConfig) -> list[Finding]:
    registered = _process_generator_names(source.tree)
    findings = []
    for func, _ in _functions(source.tree):
        if not _is_generator(func):
            continue
        if not (func.name.endswith("_process") or func.name in registered):
            continue
        for node in _own_nodes(func, reachable_only=True):
            if not isinstance(node, ast.Yield):
                continue
            value = node.value
            if value is None:
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM001",
                        f"sim process {func.name!r} has a bare yield; processes "
                        "must yield Event instances (yielding anything else "
                        "deadlocks or fails the process)",
                    )
                )
            elif isinstance(value, _NON_EVENT_YIELDS):
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM001",
                        f"sim process {func.name!r} yields a "
                        f"{type(value).__name__}; processes must yield Event "
                        "instances (yielding anything else deadlocks or fails "
                        "the process)",
                    )
                )
    return findings


# --- SIM002: determinism hazards --------------------------------------------------

_WALL_CLOCK_FUNCS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}


def _is_set_producing(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def check_sim002(source: SourceFile, config: SimlintConfig) -> list[Finding]:
    findings = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            value = node.func.value
            if (
                isinstance(value, ast.Name)
                and value.id == "time"
                and attr in _WALL_CLOCK_FUNCS
            ):
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM002",
                        f"wall-clock call time.{attr}() in simulation code; "
                        "simulated time must come from the Simulator clock "
                        "(allowlist host-side timing via per-file-ignores)",
                    )
                )
            elif attr in _DATETIME_FUNCS and (
                (isinstance(value, ast.Name) and value.id in {"datetime", "date"})
                or (
                    isinstance(value, ast.Attribute)
                    and value.attr in {"datetime", "date"}
                )
            ):
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM002",
                        f"wall-clock call datetime {attr}() in simulation code; "
                        "results depend on the host clock, not the seed",
                    )
                )
            elif (
                isinstance(value, ast.Name)
                and value.id == "random"
                and attr != "Random"
            ):
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM002",
                        f"module-level random.{attr}() shares unseeded global "
                        "state; draw from a private random.Random(seed) (or "
                        "numpy default_rng(seed)) instead",
                    )
                )
        iterables: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        for iterable in iterables:
            if _is_set_producing(iterable):
                findings.append(
                    _finding(
                        source,
                        iterable,
                        "SIM002",
                        "iteration over a set is hash-order-nondeterministic; "
                        "sort it (or keep an ordered container) before work "
                        "derived from it feeds event scheduling",
                    )
                )
    return findings


# --- SIM003: events constructed but never observed --------------------------------

_EVENT_FACTORY_METHODS = {"event", "timeout", "timeout_at", "all_of"}
_EVENT_CLASS_NAMES = {"Event", "Timeout", "AllOf", "Barrier"}


def _is_event_ctor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr in _EVENT_FACTORY_METHODS:
        return True
    name = _call_name(node.func)
    return name in _EVENT_CLASS_NAMES


def _scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    yield tree, tree.body
    for func, _ in _functions(tree):
        yield func, func.body


def check_sim003(source: SourceFile, config: SimlintConfig) -> list[Finding]:
    findings = []
    for scope, _ in _scopes(source.tree):
        loaded = {
            node.id
            for node in ast.walk(scope)  # includes nested defs: closures count
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in _own_nodes(scope):
            if isinstance(node, ast.Expr) and _is_event_ctor(node.value):
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM003",
                        "Event constructed and immediately discarded; "
                        "nothing can ever observe it triggering "
                        "(lost wakeup)",
                    )
                )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_event_ctor(node.value)
                and node.targets[0].id not in loaded
            ):
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM003",
                        f"Event bound to {node.targets[0].id!r} is never "
                        "yielded, returned, or given a callback "
                        "(lost wakeup)",
                    )
                )
    return findings


# --- SIM004: acquire without release on every exit path ---------------------------


def _has_direct_release(func: ast.AST, release_methods: tuple[str, ...]) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in release_methods
        for node in _own_nodes(func)
    )


def check_sim004(source: SourceFile, config: SimlintConfig) -> list[Finding]:
    acquire = set(config.acquire_methods)
    release = set(config.release_methods)

    def is_acquire(call: ast.Call) -> bool:
        return isinstance(call.func, ast.Attribute) and call.func.attr in acquire

    def is_release(call: ast.Call) -> bool:
        return isinstance(call.func, ast.Attribute) and call.func.attr in release

    class_releases: dict[ast.ClassDef, bool] = {}
    findings = []
    for func, enclosing in _functions(source.tree):
        acquires = [
            node
            for node in _own_nodes(func)
            if isinstance(node, ast.Call) and is_acquire(node)
        ]
        if not acquires:
            continue
        if _has_direct_release(func, config.release_methods):
            # Locally paired: the walk enforces release on every return/
            # fall-through path (raise paths are the sanitizer's job).
            for line in cfg.held_exit_lines(func.body, is_acquire, is_release):
                findings.append(
                    Finding(
                        path=source.path,
                        line=line,
                        col=0,
                        code="SIM004",
                        message=(
                            f"{func.name!r} can exit here with an "
                            f"un-released {'/'.join(sorted(acquire))} "
                            "reservation (KV ledger leak)"
                        ),
                    )
                )
            continue
        if enclosing is not None:
            if enclosing not in class_releases:
                class_releases[enclosing] = any(
                    _has_direct_release(method, config.release_methods)
                    for method in enclosing.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
            if class_releases[enclosing]:
                # Class-managed ownership (e.g. the NodeEngine state machine
                # releasing in _retire_finished): cross-method conservation
                # is the runtime sanitizer's invariant, not a local leak.
                continue
        for node in acquires:
            findings.append(
                _finding(
                    source,
                    node,
                    "SIM004",
                    f"{func.name!r} acquires a reservation but neither it nor "
                    "its class ever calls "
                    f"{'/'.join(sorted(release))}() (KV ledger leak)",
                )
            )
    return findings


# --- SIM005: exact equality between simulated times -------------------------------


def _is_time_expr(node: ast.expr) -> bool:
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name is None:
        return False
    return name in {"now", "_now"} or name.endswith("_time")


def check_sim005(source: SourceFile, config: SimlintConfig) -> list[Finding]:
    findings = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_time_expr(left) or _is_time_expr(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                findings.append(
                    _finding(
                        source,
                        node,
                        "SIM005",
                        f"{symbol} between simulated times; float time "
                        "arithmetic makes exact equality fragile -- compare "
                        "with an ordering or an explicit tolerance",
                    )
                )
    return findings


# --- SIM006: getattr-probing declared interface attributes ------------------------


def check_sim006(source: SourceFile, config: SimlintConfig) -> list[Finding]:
    findings = []
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
        ):
            continue
        probe = node.args[1]
        if (
            isinstance(probe, ast.Constant)
            and isinstance(probe.value, str)
            and probe.value in config.interface_attributes
        ):
            findings.append(
                _finding(
                    source,
                    node,
                    "SIM006",
                    f"getattr-probing for {probe.value!r}; the interface "
                    "declares it with a no-op default -- access it directly",
                )
            )
    return findings


# --- registry ---------------------------------------------------------------------

RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            code="SIM001",
            name="yield-non-event",
            summary="sim process generators must yield Event instances",
            doc=(
                "A generator registered via sim.process()/Process() (or named "
                "*_process) yields a literal, container, or expression that "
                "cannot be an Event.  The engine fails such processes cleanly "
                "today, but before PR 1 this class of bug deadlocked AllOf "
                "waiters; catching it statically keeps the failure out of the "
                "simulation entirely."
            ),
            check=check_sim001,
        ),
        Rule(
            code="SIM002",
            name="determinism-hazard",
            summary="no wall clocks, global RNG, or set iteration in sim code",
            doc=(
                "time.time()/datetime.now() tie results to the host clock, "
                "module-level random.* shares unseeded global state, and "
                "iterating a set feeds hash-order nondeterminism into event "
                "scheduling.  All three break the bit-identical replay that "
                "the symmetry-folding and determinism property tests rely "
                "on.  Host-side wall-clock timing (e.g. experiments/runner.py) "
                "is allowlisted via per-file-ignores."
            ),
            check=check_sim002,
        ),
        Rule(
            code="SIM003",
            name="lost-wakeup",
            summary="an Event constructed but never observed can wake nobody",
            doc=(
                "An Event assigned to a local that is never yielded, "
                "returned, passed on, or given a callback -- or constructed "
                "as a bare expression statement -- can trigger without any "
                "observer, or strand a waiter forever.  The runtime "
                "sanitizer's lost-wakeup check is the dynamic twin of this "
                "rule."
            ),
            check=check_sim003,
        ),
        Rule(
            code="SIM004",
            name="budget-leak",
            summary="occupy()/reserve() must pair with release() on every exit",
            doc=(
                "For functions that both acquire and release a BudgetTracker "
                "reservation, a simple CFG walk verifies a release executes "
                "on every return/fall-through path (raise paths are exempt; "
                "they abort the drain).  Functions that acquire but delegate "
                "release to sibling methods of the same class are class-"
                "managed -- the runtime sanitizer's budget-conservation "
                "check owns that case -- while acquires with no release "
                "anywhere in reach are flagged outright."
            ),
            check=check_sim004,
        ),
        Rule(
            code="SIM005",
            name="time-equality",
            summary="no ==/!= between simulated times",
            doc=(
                "Simulated timestamps are accumulated floats; exact equality "
                "silently stops matching when a model's step arithmetic "
                "changes at the 1e-15 level (the PR-4 bucket-age class).  "
                "Compare with orderings or explicit tolerances.  The one "
                "deliberate exception -- the engine's same-timestamp batch "
                "sweep, which groups entries by the exact heap key it "
                "pushed -- carries an inline suppression."
            ),
            check=check_sim005,
        ),
        Rule(
            code="SIM006",
            name="getattr-probe",
            summary="no getattr-probing for declared interface attributes",
            doc=(
                "PR 4 promoted clamp accounting onto the StepTimeModel "
                "interface precisely to end getattr probing, yet probes for "
                "flush/gpu survived two more PRs.  Anything listed in "
                "interface-attributes is declared with a usable default on "
                "the interface; probing for it hides typos and breaks "
                "subclass contracts silently."
            ),
            check=check_sim006,
        ),
    )
}
