"""The simlint determinism rule catalog.

Each rule is a function ``rule(tree, path) -> iterable of (line, col,
message)`` registered under a stable id.  The rules encode *this repo's*
determinism contract: every bench number and fault log must be a pure
function of (code, seed), so simulation code may not consult wall
clocks, global RNGs, or hash-order iteration on paths that reach
scheduling or output.  Rules are pluggable — register extra ones with
:func:`register_rule` and select subsets via ``lint_paths(rules=...)``.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

__all__ = ["RULES", "RULE_SUMMARIES", "register_rule", "rule_catalog"]

RuleHit = Tuple[int, int, str]
RuleFn = Callable[[ast.AST, str], Iterable[RuleHit]]

RULES: Dict[str, RuleFn] = {}
RULE_SUMMARIES: Dict[str, str] = {}


def register_rule(rule_id: str, summary: str) -> Callable[[RuleFn], RuleFn]:
    """Register a lint rule under ``rule_id`` (decorator)."""

    def deco(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = fn
        RULE_SUMMARIES[rule_id] = summary
        return fn

    return deco


def rule_catalog() -> Dict[str, str]:
    """Rule id -> one-line summary, sorted by id."""
    return {rid: RULE_SUMMARIES[rid] for rid in sorted(RULES)}


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it is an unordered iterable expression.

    Matches set literals, ``set(...)``/``frozenset(...)`` calls, and
    no-argument ``.values()``/``.keys()`` calls (dict views: insertion-
    ordered in CPython, but the *insertion order itself* is rarely a
    simulation invariant, and set-typed attributes routinely flow
    through these).  ``sorted(...)`` wrappers are handled by callers
    never reaching this on the inner node.
    """
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return f"{fn.id}(...)"
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("values", "keys")
            and not node.args
            and not node.keywords
        ):
            base = _dotted(fn.value) or "<expr>"
            return f"{base}.{fn.attr}()"
    return None


#: Reducers whose result does not depend on iteration order (``sum`` is
#: deliberately absent: float addition is order-sensitive — see the
#: ``float-accum`` rule).
_ORDER_FREE_REDUCERS = {
    "any", "all", "min", "max", "len", "sorted", "set", "frozenset",
    "dict", "Counter",
}


def _walk(tree: ast.AST) -> Iterator[ast.AST]:
    yield from ast.walk(tree)


# --------------------------------------------------------------------------
# rules
# --------------------------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
}


@register_rule(
    "wall-clock",
    "no host wall-clock reads (time.time/datetime.now/...) in simulation "
    "code; simulated time is Engine.now",
)
def rule_wall_clock(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    for node in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            yield (
                node.lineno,
                node.col_offset,
                f"call to {dotted}() reads the host clock; simulation "
                "code must derive time from Engine.now",
            )


@register_rule(
    "global-random",
    "no global RNG draws (random.*, np.random.*); randomness comes from "
    "seeded per-component RngStream instances",
)
def rule_global_random(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    for node in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        if dotted.startswith("random."):
            yield (
                node.lineno,
                node.col_offset,
                f"{dotted}() draws from the process-global RNG; use a "
                "seeded repro.sim.rng.RngStream",
            )
        elif dotted in ("np.random.default_rng", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                yield (
                    node.lineno,
                    node.col_offset,
                    "default_rng() without a seed is entropy-seeded; pass "
                    "a seed derived from the run's root seed",
                )
        elif dotted.startswith(("np.random.", "numpy.random.")):
            yield (
                node.lineno,
                node.col_offset,
                f"{dotted}() uses numpy's global RNG; use a seeded "
                "Generator (np.random.default_rng(seed)) or RngStream",
            )


@register_rule(
    "unordered-iter",
    "no for-loops over sets or dict views where body order can reach "
    "scheduling or output; iterate a sorted() copy",
)
def rule_unordered_iter(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    # Comprehensions feeding an order-free reducer are fine; collect the
    # generator nodes they own so the main walk can skip them.
    excused = set()
    for node in _walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else None
            if name in _ORDER_FREE_REDUCERS or name == "sum":
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                        ast.SetComp, ast.DictComp)):
                        excused.update(id(c) for c in arg.generators)
    for node in _walk(tree):
        if isinstance(node, ast.For):
            desc = _is_unordered_iterable(node.iter)
            if desc:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"for-loop iterates {desc}: body order follows hash "
                    "order; iterate sorted(...) instead",
                )
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                               ast.DictComp)):
            for comp in node.generators:
                if id(comp) in excused:
                    continue
                desc = _is_unordered_iterable(comp.iter)
                if desc:
                    yield (
                        comp.iter.lineno,
                        comp.iter.col_offset,
                        f"comprehension iterates {desc}: element order "
                        "follows hash order; iterate sorted(...) instead",
                    )


@register_rule(
    "float-accum",
    "no sum() over unordered iterables on stats paths; float addition is "
    "order-sensitive, so sum a sorted() copy (or suppress for integers)",
)
def rule_float_accum(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    for node in _walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
        ):
            continue
        arg = node.args[0]
        sources = []
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            sources = [c.iter for c in arg.generators]
        else:
            sources = [arg]
        for src in sources:
            desc = _is_unordered_iterable(src)
            if desc:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"sum() accumulates over {desc} in hash order; float "
                    "sums are order-sensitive — sum over sorted(...) or "
                    "suppress with a justification if provably integral",
                )


@register_rule(
    "yieldless-process",
    "functions annotated -> Generator must contain a yield, otherwise "
    "Engine.process() gets a plain call result and raises TypeError",
)
def rule_yieldless_process(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    for node in _walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        returns = node.returns
        if returns is None:
            continue
        ann = ast.unparse(returns) if hasattr(ast, "unparse") else ""
        if "Generator" not in ann and "Iterator[Event" not in ann:
            continue
        has_yield = any(
            isinstance(inner, (ast.Yield, ast.YieldFrom))
            for inner in _walk(node)
            # Don't credit yields belonging to nested function defs.
            if _owner(inner, node)
        )
        if not has_yield:
            yield (
                node.lineno,
                node.col_offset,
                f"{node.name}() is annotated as a generator process but "
                "contains no yield; Engine.process() would raise "
                "TypeError at runtime",
            )


def _owner(node: ast.AST, fn: ast.AST) -> bool:
    """True when ``node``'s enclosing function is ``fn`` itself.

    Computed structurally: walk ``fn``'s immediate body, stopping at
    nested function boundaries.
    """
    stack = list(getattr(fn, "body", []))
    while stack:
        cur = stack.pop()
        if cur is node:
            return True
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(cur))
    return False


@register_rule(
    "hash-order-key",
    "sort keys must not depend on object identity or hashes "
    "(sorted(key=id)/hash() in key functions); such orders vary across "
    "processes and hash seeds",
)
def rule_hash_order_key(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    for node in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        is_sort = (
            (isinstance(fn, ast.Name) and fn.id == "sorted")
            or (isinstance(fn, ast.Attribute) and fn.attr == "sort")
        )
        if not is_sort:
            continue
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            val = kw.value
            if isinstance(val, ast.Name) and val.id in ("id", "hash"):
                yield (
                    val.lineno,
                    val.col_offset,
                    f"sort key {val.id} orders by "
                    + ("object address" if val.id == "id"
                       else "hash value")
                    + ", which differs across processes and PYTHONHASHSEED"
                    " values; sort by a stable domain key",
                )
            elif isinstance(val, ast.Lambda):
                for inner in ast.walk(val):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id in ("id", "hash")
                    ):
                        yield (
                            inner.lineno,
                            inner.col_offset,
                            f"sort key calls {inner.func.id}(): the order "
                            "follows object addresses/hash seeds, not the "
                            "domain; sort by a stable key",
                        )


def _is_dir_listing(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it is a directory-listing call."""
    if not isinstance(node, ast.Call):
        return None
    dotted = _dotted(node.func)
    if dotted in ("os.listdir", "listdir"):
        return f"{dotted}(...)"
    if isinstance(node.func, ast.Attribute) and node.func.attr == "iterdir":
        base = _dotted(node.func.value) or "<expr>"
        return f"{base}.iterdir()"
    return None


@register_rule(
    "unsorted-listdir",
    "directory listings (os.listdir / Path.iterdir) come back in "
    "filesystem order; iterate a sorted() copy",
)
def rule_unsorted_listdir(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    # As in unordered-iter: a comprehension feeding an order-free
    # reducer (sorted(p.name for p in d.iterdir())) is already fixed.
    excused = set()
    for node in _walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else None
            if name in _ORDER_FREE_REDUCERS or name == "sum":
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                        ast.SetComp, ast.DictComp)):
                        excused.update(id(c) for c in arg.generators)
    for node in _walk(tree):
        iters = []
        if isinstance(node, ast.For):
            iters = [(node.iter, node.iter.lineno, node.iter.col_offset)]
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                               ast.DictComp)):
            iters = [
                (c.iter, c.iter.lineno, c.iter.col_offset)
                for c in node.generators
                if id(c) not in excused
            ]
        for expr, line, col in iters:
            desc = _is_dir_listing(expr)
            if desc:
                yield (
                    line,
                    col,
                    f"iterating {desc} in filesystem return order; the "
                    "listing is not sorted on any platform guarantee — "
                    "iterate sorted(...) instead",
                )


#: Engine internals whose layout is a private contract of the event
#: loop: any outside reader couples itself to heap-tuple layout and the
#: zero-delay fast path, both of which are allowed to change.
_ENGINE_INTERNALS = {"_heap", "_now_queue", "_seq"}


@register_rule(
    "engine-internal-access",
    "no reads of Engine internals (_heap/_now_queue/_seq) outside "
    "repro.sim; schedule through the public Engine API",
)
def rule_engine_internal_access(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    # The kernel package owns these fields.
    normalized = path.replace("\\", "/")
    if "repro/sim/" in normalized or normalized.endswith("repro/sim"):
        return
    for node in _walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENGINE_INTERNALS
        ):
            base = _dotted(node.value) or "<expr>"
            yield (
                node.lineno,
                node.col_offset,
                f"{base}.{node.attr} reaches into the event-loop "
                "internals; their layout (heap tuples, the zero-delay "
                "fast path) is private to repro.sim — use the public "
                "Engine API (schedule/process/peek)",
            )


_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CTORS = {"list", "dict", "set", "defaultdict", "deque"}


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        return name in _MUTABLE_CTORS
    return False


@register_rule(
    "shared-state",
    "engine-shared mutable state must be instance-owned: no mutable "
    "default arguments and no mutable class-attribute literals",
)
def rule_shared_state(tree: ast.AST, path: str) -> Iterator[RuleHit]:
    for node in _walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_value(default):
                    yield (
                        default.lineno,
                        default.col_offset,
                        f"{node.name}() has a mutable default argument; "
                        "it is shared across every call — default to "
                        "None and allocate per call",
                    )
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                value = None
                if isinstance(stmt, ast.Assign):
                    targets = [
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    ]
                    if targets == ["__slots__"]:
                        continue
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    ann = (
                        ast.unparse(stmt.annotation)
                        if hasattr(ast, "unparse") else ""
                    )
                    if "ClassVar" in ann:
                        continue
                    value = stmt.value
                if value is not None and _is_mutable_value(value):
                    yield (
                        value.lineno,
                        value.col_offset,
                        f"class {node.name} binds a mutable literal as a "
                        "class attribute; it is shared by every instance "
                        "— assign in __init__ or use field(default_factory)",
                    )
