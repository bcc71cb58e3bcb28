"""Vector-clock happens-before over engine causality breadcrumbs.

One causality core shared by the race detector (:mod:`repro.analysis.races`)
and the model checker's commutativity reduction (:mod:`repro.analysis.model`):
a :class:`CausalityTracker` attached to an engine maintains a vector clock
per process and stamps every triggered event with the clock of whoever
triggered it, so "did A happen-before B, or could a different schedule
reorder them?" becomes a pointwise clock comparison instead of the old
name-chain walk (which could not express joins and missed transitive
edges through derived events).

Clock discipline
----------------
* Every :class:`~repro.sim.engine.Process` owns one component, assigned
  on first sight.
* ``Event.succeed``/``Event.fail`` are wrapped (class-level, attach/
  detach) to stamp the event with the *triggerer's clock at trigger
  time*.  Stamping at dispatch time instead would fold in whatever the
  triggerer did after calling ``succeed`` and hide real races.
* When an event resumes a process, the process clock becomes
  ``merge(own, event stamp)`` then ticks its own component.  The merge
  is applied eagerly from the engine trace hook for ordinary resumes
  and lazily (from ``Process.last_resumed_by``) for resume paths the
  hook cannot see: ``Interrupt`` delivery closures and already-processed
  events whose callback runs inside ``add_callback``.
* Triggers from host/callback context (``active_process is None``)
  inherit the stamp of the event currently being dispatched — this is
  how causality flows through derived events (``AllOf``/``AnyOf``,
  store wakeups) that succeed follow-on events from plain callbacks.

The relation is deliberately *under*-approximated where the breadcrumbs
run out (an unstamped pre-attach event contributes the empty clock):
missing edges can only make the race detector report a schedule-artifact
pair that is actually ordered, and can only make the model checker
explore an order it could have pruned — both sound directions.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.sim.engine import Engine, Event, Process

__all__ = ["VectorClock", "CausalityTracker"]


class VectorClock:
    """An immutable mapping ``pid -> counter`` with pointwise ordering."""

    __slots__ = ("_c", "_hash")

    def __init__(self, items: Any = ()):
        # Zero components are the implicit default everywhere (`get`
        # returns 0 for absent pids); storing them explicitly would
        # break value equality and the strict-precedence test.
        self._c: Dict[int, int] = {
            p: n for p, n in dict(items).items() if n
        }
        self._hash: Optional[int] = None

    def tick(self, pid: int) -> "VectorClock":
        """A copy with ``pid``'s component incremented."""
        c = dict(self._c)
        c[pid] = c.get(pid, 0) + 1
        return VectorClock(c)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """The pointwise maximum (least upper bound) of the two clocks."""
        if not other._c:
            return self
        if not self._c:
            return other
        c = dict(self._c)
        for pid, n in other._c.items():
            if c.get(pid, 0) < n:
                c[pid] = n
        return VectorClock(c)

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise ``self <= other`` (equality counts as ordered)."""
        for pid, n in self._c.items():
            if n > other._c.get(pid, 0):
                return False
        return True

    def precedes(self, other: "VectorClock") -> bool:
        """Strict happens-before: ``self <= other`` and ``self != other``."""
        return self.leq(other) and self._c != other._c

    def concurrent(self, other: "VectorClock") -> bool:
        """Neither clock is pointwise below the other."""
        return not self.leq(other) and not other.leq(self)

    def get(self, pid: int) -> int:
        return self._c.get(pid, 0)

    def items(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self._c.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{p}:{n}" for p, n in self.items())
        return f"VectorClock({{{inner}}})"


EMPTY_CLOCK = VectorClock()


class CausalityTracker:
    """Opt-in engine instrumentation maintaining vector clocks.

    Exactly one tracker is attached process-wide at a time (the
    wrappers live on the :class:`Event` class); attaching a new tracker
    automatically releases a stale one from a finished engine.  Events
    on other engines pass straight through the wrappers.
    """

    _attached: Optional["CausalityTracker"] = None

    def __init__(self, engine: Engine):
        self.engine = engine
        self._pids: Dict[Process, int] = {}
        self._proc_clocks: Dict[Process, VectorClock] = {}
        #: Event -> clock stamped at trigger time.  Keyed by the event
        #: object itself (identity hash); the strong reference also
        #: guarantees ids are never recycled mid-run.
        self._event_clocks: Dict[Event, VectorClock] = {}
        #: Per-process, the resume event whose stamp was last merged —
        #: lets the lazy path skip already-applied merges.
        self._merged_resume: Dict[Process, Optional[Event]] = {}
        self._current_event: Optional[Event] = None
        self._prev_trace = None
        self._orig_succeed = None
        self._orig_fail = None

    # -- attach / detach -------------------------------------------------
    def attach(self) -> "CausalityTracker":
        prev = CausalityTracker._attached
        if prev is self:
            return self
        if prev is not None:
            # A tracker from an earlier (finished) engine is still
            # holding the class-level wrappers; replace it rather than
            # fail, so short-lived detectors need no explicit lifecycle.
            prev.detach()
        CausalityTracker._attached = self
        # Recycled pooled timeouts would alias event stamps from earlier
        # instants; disable pooling outright (the trace hook below also
        # suppresses recycling, but pool_limit=0 survives hook chaining).
        self.engine.pool_limit = 0
        self.engine._timeout_pool.clear()
        self._prev_trace = self.engine.trace
        self.engine.trace = self._on_trace
        self._orig_succeed = Event.succeed
        self._orig_fail = Event.fail
        tracker = self
        orig_succeed = self._orig_succeed
        orig_fail = self._orig_fail

        def succeed(ev, value=None, delay=0.0):
            orig_succeed(ev, value, delay=delay)
            if ev.engine is tracker.engine:
                tracker._stamp(ev)
            return ev

        def fail(ev, exc, delay=0.0):
            orig_fail(ev, exc, delay=delay)
            if ev.engine is tracker.engine:
                tracker._stamp(ev)
            return ev

        Event.succeed = succeed
        Event.fail = fail
        return self

    def detach(self) -> None:
        if CausalityTracker._attached is not self:
            return
        CausalityTracker._attached = None
        Event.succeed = self._orig_succeed
        Event.fail = self._orig_fail
        self.engine.trace = self._prev_trace
        self._prev_trace = None

    # -- clocks ----------------------------------------------------------
    def pid_of(self, proc: Process) -> int:
        pid = self._pids.get(proc)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[proc] = pid
            self._proc_clocks[proc] = EMPTY_CLOCK.tick(pid)
            self._merged_resume[proc] = None
        return pid

    def clock_of(self, proc: Process) -> VectorClock:
        """The process's current clock, resume merges applied (no tick)."""
        self.pid_of(proc)
        ev = proc.last_resumed_by
        if ev is not None and ev is not self._merged_resume.get(proc):
            self._merged_resume[proc] = ev
            stamp = self._event_clocks.get(ev)
            clock = self._proc_clocks[proc]
            if stamp is not None:
                clock = clock.merge(stamp)
            self._proc_clocks[proc] = clock.tick(self._pids[proc])
        return self._proc_clocks[proc]

    def observe(self, proc: Process) -> VectorClock:
        """Advance and return the process clock for one observable access."""
        clock = self.clock_of(proc).tick(self._pids[proc])
        self._proc_clocks[proc] = clock
        return clock

    def event_clock(self, event: Event) -> Optional[VectorClock]:
        """The stamp recorded when ``event`` was triggered (or None)."""
        return self._event_clocks.get(event)

    # -- instrumentation internals --------------------------------------
    def _stamp(self, ev: Event) -> None:
        active = self.engine._active
        if active is not None:
            clock = self.clock_of(active)
        elif self._current_event is not None:
            # Host/callback context: causality flows through the event
            # being dispatched right now (derived events like AllOf
            # succeed from its callbacks).
            clock = self._event_clocks.get(self._current_event, EMPTY_CLOCK)
        else:
            clock = EMPTY_CLOCK
        self._event_clocks[ev] = clock

    def _on_trace(self, t: float, event: Event) -> None:
        self._current_event = event
        stamp = self._event_clocks.get(event)
        if stamp is not None:
            # Eagerly merge into every process this event will resume;
            # _deliver closures and immediate add_callback resumes are
            # caught lazily via last_resumed_by in clock_of().
            for cb in event.callbacks:
                proc = getattr(cb, "__self__", None)
                if not isinstance(proc, Process):
                    continue
                self.pid_of(proc)
                self._merged_resume[proc] = event
                self._proc_clocks[proc] = (
                    self._proc_clocks[proc].merge(stamp).tick(self._pids[proc])
                )
        if self._prev_trace is not None:
            self._prev_trace(t, event)
