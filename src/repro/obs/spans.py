"""Deterministic Dapper-style span tracing over the DES engine.

A *span* is one timed leg of a distributed operation (the client's RPC,
the MDS handling it, the journal append, the object-store write...).
Spans carry **simulated** timestamps and form a tree via parent links,
so one ``create`` under strong+global renders as::

    create-op
      client.rpc (client1, rpc)
        mds.handle (mds0, rpc)
          mds.apply (mds0, volatile_apply)
          mds.journal.append (mds0, stream)
            journal.dispatch (mds0, stream)
              osd.write (osd.0, rados)
              ...

Determinism
-----------
Span ids are monotone integers assigned in creation order.  The
simulation is seeded and wall-clock-free, so two identical runs produce
byte-identical span trees — no random trace ids, ever.

Context propagation
-------------------
The current span rides the engine's process graph: every ``Process``
carries an ``obs_span`` slot inherited from the context that spawned it
(``Engine.host_span`` for host-driver context), and the tracer reads and
writes the slot of the *active* process.  Fan-out therefore follows
automatically — a journal-flush process spawned inside the append span
starts life inside that span.  The one hop a spawned process cannot
model — the client's request crossing the MDS queue to a loop that has
been running since boot — carries the parent explicitly on the request
(``Request.span``), exactly like trace context in an RPC header.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.sim.engine import Engine

__all__ = ["Span", "Tracer"]

_INHERIT = object()


class Span:
    """One timed leg of an operation, in simulated seconds."""

    __slots__ = ("span_id", "parent_id", "name", "daemon", "mechanism",
                 "tags", "t_start", "t_end", "busy_s", "_prev")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        daemon: str,
        mechanism: str,
        t_start: float,
        tags: tuple,
    ):
        self.span_id = span_id
        self.parent_id = parent_id  # 0 = root
        self.name = name
        self.daemon = daemon
        self.mechanism = mechanism
        self.tags = tags
        self.t_start = t_start
        self.t_end: Optional[float] = None
        #: Simulated busy time attributed by the profiling hook
        #: (``Observability.attach(..., profile=True)``).
        self.busy_s = 0.0
        self._prev: Optional["Span"] = None  # context to restore on end

    @property
    def duration_s(self) -> float:
        return (self.t_end if self.t_end is not None else self.t_start) - self.t_start

    @property
    def finished(self) -> bool:
        return self.t_end is not None

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "daemon": self.daemon,
            "mechanism": self.mechanism,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "busy_s": self.busy_s,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        return (
            f"Span(#{self.span_id}<-{self.parent_id} {self.name} "
            f"[{self.t_start:.6f}..{self.t_end if self.t_end is not None else '...'}])"
        )


class Tracer:
    """Allocates spans and maintains the per-process span context."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.spans: List[Span] = []
        self._next_id = 1

    # -- context ---------------------------------------------------------
    def current(self) -> Optional[Span]:
        """The span in force for the active process (or host driver)."""
        active = self.engine.active_process
        if active is not None:
            return active.obs_span
        return self.engine.host_span

    def _set_current(self, span: Optional[Span]) -> None:
        active = self.engine.active_process
        if active is not None:
            active.obs_span = span
        else:
            self.engine.host_span = span

    # -- lifecycle -------------------------------------------------------
    def start(
        self,
        name: str,
        daemon: str = "",
        mechanism: str = "",
        parent=_INHERIT,
        **tags,
    ) -> Span:
        """Open a span and make it the current context.

        ``parent`` defaults to the current span of the active context;
        pass an explicit span for cross-queue hops (or ``None`` to root
        a new trace).
        """
        return self.open(
            name, daemon, mechanism,
            tuple(sorted((k, str(v)) for k, v in tags.items())), parent,
        )

    def open(
        self, name: str, daemon: str, mechanism: str, tags: tuple,
        parent=_INHERIT,
    ) -> Span:
        """:meth:`start` with ``tags`` already in span form: a tuple of
        ``(key, str(value))`` pairs sorted by key."""
        current = self.current()
        if parent is _INHERIT:
            parent = current
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else 0,
            name,
            daemon,
            mechanism,
            self.engine.now,
            tags,
        )
        self._next_id += 1
        self.spans.append(span)
        span._prev = current
        self._set_current(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` and restore the context it displaced."""
        if span.t_end is None:
            span.t_end = self.engine.now
        self._set_current(span._prev)

    @contextmanager
    def span(self, name: str, **kw):
        """``with tracer.span("mds.handle", daemon="mds0"):`` — safe in
        generators too: the finally runs even if the body raises."""
        sp = self.start(name, **kw)
        try:
            yield sp
        finally:
            self.end(sp)

    # -- inspection ------------------------------------------------------
    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def ancestors(self, span: Span) -> List[Span]:
        """Path from ``span``'s parent up to its root, in that order."""
        by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        out: List[Span] = []
        cur = span
        while cur.parent_id:
            cur = by_id[cur.parent_id]
            out.append(cur)
        return out

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id == 0]

    def to_dicts(self) -> List[dict]:
        return [s.to_dict() for s in self.spans]

    def render(self) -> str:
        """ASCII span forest with simulated timestamps and durations."""
        from repro.obs.report import render_spans  # local: avoid cycle

        return render_spans(self.to_dicts())
