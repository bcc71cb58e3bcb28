"""A process exists only where its body runs concurrently with its
spawner or must survive an interrupt of it (``repro.sim.engine``).

A body its spawner awaits at once — ``x = yield engine.process(body)``,
or a process bound to a name that the next statement yields — costs a
start and a completion dispatch and buys nothing that ``yield from body``
does not, unless an interrupt of the spawner must not reach the body.
One process in ``src/`` is ever interrupted: the MDS serve loop, when
its rank crashes.  So this gate lists every awaited-at-once spawn left
in ``src/`` with its reason, and pins the one interrupter: a new
spawn-and-wait, or a second ``interrupt`` caller, fails here until it is
justified in the tables below.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: ``"<module path>::<qualified function>"`` -> why the awaited child
#: must stay a process.  Empty: no site in ``src/`` needs one.
AWAITED_AT_ONCE: dict = {}

#: The callers of ``Process.interrupt``: a body run inline inside one of
#: these processes would take the interrupt itself.
INTERRUPTERS = {
    "mds/server.py::MetadataServer.crash":
        "a crash stops the rank's serve loop; a write the loop already "
        "handed off runs in its own process and still lands",
}


def _is_spawn(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
    )


def _yields_name(stmt, name: str) -> bool:
    return any(
        isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
        for node in ast.walk(stmt)
    )


class _Sites(ast.NodeVisitor):
    """Collects awaited-at-once spawns and ``interrupt`` calls, each as
    ``"<module>::<qualified function>"``."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list = []
        self.awaited: list = []
        self.interrupts: list = []

    def _where(self) -> str:
        return f"{self.module}::{'.'.join(self.scope)}"

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Yield(self, node):
        if _is_spawn(node.value):
            self.awaited.append(self._where())
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "interrupt":
            self.interrupts.append(self._where())
        self.generic_visit(node)

    def generic_visit(self, node):
        # A spawn bound to a name that the very next statement yields.
        for _, block in ast.iter_fields(node):
            if not isinstance(block, list):
                continue
            for stmt, nxt in zip(block, block[1:]):
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and _is_spawn(stmt.value)
                    and _yields_name(nxt, stmt.targets[0].id)
                ):
                    self.awaited.append(self._where())
        super().generic_visit(node)


def _scan(source: str, module: str) -> _Sites:
    sites = _Sites(module)
    sites.visit(ast.parse(source))
    return sites


@pytest.fixture(scope="module")
def src_sites() -> tuple:
    """``(awaited, interrupts)`` over every module of ``src/``."""
    awaited, interrupts = [], []
    for path in sorted(SRC.rglob("*.py")):
        sites = _scan(path.read_text(), path.relative_to(SRC).as_posix())
        awaited += sites.awaited
        interrupts += sites.interrupts
    return awaited, interrupts


def test_the_detector_sees_both_forms_of_spawn_and_wait():
    sites = _scan(
        "class A:\n"
        "    def f(self):\n"
        "        x = yield self.engine.process(g())\n"
        "        p = self.engine.process(g())\n"
        "        y = yield p\n"
        "        q = self.engine.process(g())\n"
        "        yield self.engine.sleep(1)\n"
        "        yield q\n"
        "        self.loop.interrupt('x')\n",
        "m.py",
    )
    # `q` runs concurrently with the sleep: a fan-out, not a wait.
    assert sites.awaited == ["m.py::A.f", "m.py::A.f"]
    assert sites.interrupts == ["m.py::A.f"]


def test_every_spawn_awaited_at_once_is_justified(src_sites):
    awaited, _ = src_sites
    assert sorted(set(awaited)) == sorted(AWAITED_AT_ONCE), (
        "run a body its spawner awaits at once with `yield from`, or "
        "name the interrupt it must survive in AWAITED_AT_ONCE"
    )


def test_the_mds_crash_is_the_one_interrupter(src_sites):
    _, interrupts = src_sites
    assert interrupts == list(INTERRUPTERS)
