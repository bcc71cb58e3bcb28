"""Controlled-scheduler shim for the model checker.

The engine's optional ``scheduler`` hook (see
:meth:`repro.sim.engine.Engine._take_tied`) surfaces every
dispatch tie — events ready at equal ``(time, priority)`` — and lets a
callback pick which fires first.  :class:`ScheduleController` is that
callback packaged as a replayable *schedule*: a tuple of choice indices
consumed one per decision point.  Running with an empty schedule takes
index 0 everywhere, which reproduces the engine's default seq order
exactly; the model checker's DFS then re-runs the (deterministic)
simulation with systematically extended schedules to visit every other
interleaving.

Each decision records the full ready set with per-alternative metadata
(client tag, declared op target, RPC flag, vector-clock stamp) so the
explorer can both render human-readable traces and apply its
commutativity reduction without re-running anything.

Tags and targets are *declared* by the workload programs:
``tag_process`` names a process tree (children spawned while a tagged
process is active inherit its tag) and ``set_target`` announces what
the tagged program is about to do — a deliberate little protocol, since
the engine itself has no idea what a pending event means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.causality import CausalityTracker, VectorClock
from repro.sim.engine import Engine, Event, Process

__all__ = ["Alternative", "Decision", "ScheduleController"]


def _path_independent(a: Optional[str], b: Optional[str]) -> bool:
    """True when two op targets cannot touch the same namespace entry.

    Requires both declared, distinct, and neither a directory ancestor
    of the other (creating ``/job/d`` and ``/job/d/x`` do not commute).
    """
    if a is None or b is None or a == b:
        return False
    return not a.startswith(b.rstrip("/") + "/") and \
        not b.startswith(a.rstrip("/") + "/")


@dataclass(frozen=True)
class Alternative:
    """One member of a decision's ready set."""

    label: str
    tag: Optional[str]
    path: Optional[str]
    rpc: bool
    clock: Optional[VectorClock]

    def independent(self, other: "Alternative") -> bool:
        """Conservative commutativity test used by the DPOR-lite pruner.

        Two ready events may be reordered without exploring both orders
        only when *every* check passes: they belong to different
        declared clients, their declared targets are disjoint
        non-ancestor paths, and their trigger stamps are causally
        concurrent.  Any missing metadata fails the test — unknown
        means dependent, which only costs exploration, never soundness.

        Two RPCs on disjoint paths *are* treated as independent even
        though they serialize on the shared MDS inode table: the only
        state the swap perturbs is inode numbering, which no checked
        property (and no state fingerprint) observes.  The empirical
        soundness gate — reduced and unreduced exploration must reach
        identical fingerprint sets — holds this assumption to account.
        """
        if self.tag is None or other.tag is None or self.tag == other.tag:
            return False
        if not _path_independent(self.path, other.path):
            return False
        if self.clock is None or other.clock is None:
            return False
        return self.clock.concurrent(other.clock)


@dataclass
class Decision:
    """The ready set seen at one decision point, and what was chosen."""

    index: int
    t: float
    size: int
    chosen: int
    alts: List[Alternative] = field(default_factory=list)

    def prunable(self, a: int) -> bool:
        """Would choosing ``a`` here reach an already-covered state?

        Choosing alternative ``a`` first (instead of in its default
        position) only reorders it against the alternatives before it;
        if it commutes with *all* of them the resulting interleaving is
        equivalent to one the DFS reaches through other prefixes.
        """
        if a <= 0 or a >= len(self.alts):
            return False
        alt = self.alts[a]
        return all(alt.independent(self.alts[i]) for i in range(a))

    def render(self) -> str:
        parts = []
        for i, alt in enumerate(self.alts):
            mark = "*" if i == self.chosen else " "
            what = alt.path or "?"
            kind = "rpc" if alt.rpc else "op"
            parts.append(f"  {mark}[{i}] {alt.label} ({kind} {what})")
        return f"decision {self.index} at t={self.t:.9f} " \
            f"({self.size} ready):\n" + "\n".join(parts)


class ScheduleController:
    """Replayable ready-set scheduler (the engine's ``scheduler`` hook).

    ``schedule`` is a sequence of choice indices; past its end (and for
    out-of-range entries, which a stale schedule can produce when an
    earlier choice changed the ready-set shape) the controller clamps
    to index 0, i.e. the engine's default order.  ``taken`` records the
    effective choices and ``decisions`` the full ready sets, so the
    explorer can extend any prefix.
    """

    def __init__(
        self,
        engine: Engine,
        schedule: Sequence[int] = (),
        tracker: Optional[CausalityTracker] = None,
        expose: str = "tagged",
    ):
        if expose not in ("tagged", "all"):
            raise ValueError(f"expose must be 'tagged' or 'all', got {expose!r}")
        self.engine = engine
        self.schedule: Tuple[int, ...] = tuple(schedule)
        self.tracker = tracker
        #: Which ties become decision points.  ``"tagged"`` (the model
        #: checker's scope bound) records a decision only when the
        #: ready set spans at least two *distinct declared clients*;
        #: same-client and pure-plumbing ties (network micro-hops,
        #: daemon loops, join barriers) auto-resolve to the default
        #: order — one logical cross-client ordering otherwise
        #: explodes into 2^k micro-step permutations that no checked
        #: property can tell apart.  ``"all"`` records every tie; the
        #: equivalence test holds both modes to the same reachable
        #: fingerprint set at small depth.
        self.expose = expose
        self.taken: List[int] = []
        self.decisions: List[Decision] = []
        #: Process -> workload tag ("owner"/"intf"/...).  A side table
        #: because Process defines ``__slots__``; identity-keyed strong
        #: refs, same pattern as the causality tracker's clock maps.
        self._tags: Dict[Process, str] = {}
        #: tag -> (declared op path, is-RPC) for the *next* action.
        self._targets: Dict[str, Tuple[Optional[str], bool]] = {}
        self._orig_process = None
        self._attached = False

    # -- workload protocol ----------------------------------------------
    def tag_process(self, proc: Process, tag: str) -> None:
        self._tags[proc] = tag

    def set_target(self, tag: str, path: Optional[str],
                   rpc: bool = False) -> None:
        """Declare what the tagged program is about to do."""
        self._targets[tag] = (path, rpc)

    def clear_target(self, tag: str) -> None:
        self._targets.pop(tag, None)

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> "ScheduleController":
        if self._attached:
            return self
        self._attached = True
        self.engine.scheduler = self
        engine = self.engine
        self._orig_process = engine.process

        def process(generator, name=None):
            proc = self._orig_process(generator, name=name)
            spawner = engine.active_process
            if spawner is not None and proc not in self._tags:
                tag = self._tags.get(spawner)
                if tag is not None:
                    self._tags[proc] = tag
            return proc

        engine.process = process
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.engine.scheduler = None
        # The instance attribute shadows the bound method; removing it
        # re-exposes the original.
        try:
            delattr(self.engine, "process")
        except AttributeError:
            self.engine.process = self._orig_process
        self._orig_process = None

    # -- scheduler hook --------------------------------------------------
    def _describe(self, event: Event) -> Alternative:
        proc: Optional[Process] = None
        if isinstance(event, Process):
            proc = event
        else:
            for cb in event.callbacks:
                owner = getattr(cb, "__self__", None)
                if isinstance(owner, Process):
                    proc = owner
                    break
        tag = self._tags.get(proc) if proc is not None else None
        name = proc.name if proc is not None else type(event).__name__
        path, rpc = self._targets.get(tag, (None, False)) \
            if tag is not None else (None, False)
        clock = self.tracker.event_clock(event) if self.tracker else None
        return Alternative(
            label=f"{tag or '-'}:{name}", tag=tag, path=path, rpc=rpc,
            clock=clock,
        )

    def __call__(self, events: List[Event]) -> int:
        alts = [self._describe(ev) for ev in events]
        if self.expose == "tagged":
            tags = {a.tag for a in alts if a.tag is not None}
            if len(tags) < 2:
                # Not a cross-client tie: default order, no decision
                # recorded, no schedule position consumed.
                return 0
        i = len(self.taken)
        choice = self.schedule[i] if i < len(self.schedule) else 0
        if not 0 <= choice < len(events):
            choice = 0
        self.decisions.append(
            Decision(
                index=i,
                t=self.engine.now,
                size=len(events),
                chosen=choice,
                alts=alts,
            )
        )
        self.taken.append(choice)
        return choice
