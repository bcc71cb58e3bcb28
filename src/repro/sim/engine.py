"""Event loop, events and generator-based processes.

The engine implements a classic priority-queue DES.  Simulated processes
are Python generators that yield :class:`Event` objects; the engine
resumes a process when the event it is waiting on fires.  Event values
are sent back into the generator, and failed events raise inside it, so
simulated code reads like straight-line blocking code::

    def worker(engine):
        yield Timeout(engine, 1.5)          # sleep 1.5 simulated seconds
        got = yield store.get()             # block until an item arrives
        yield AllOf(engine, [e1, e2])       # wait for both

Design notes
------------
* The heap is keyed by ``(time, priority, seq)``; ``seq`` is a monotone
  tie-breaker which makes runs fully deterministic.
* Zero-delay events take a heap-free fast path: when nothing already on
  the heap is due at the current instant, a newly-triggered immediate
  event is appended to a FIFO "now" queue that the loop drains before
  popping the heap.  Because a new event always carries the largest
  sequence number, FIFO draining yields exactly the order the
  ``(time, priority, seq)`` heap would have produced — the contract is
  preserved, the ``heappush``/``heappop`` round trip is not paid (see
  docs/PERFORMANCE.md).
* An engine event exists only where simulated time passes or another
  process hands something over.  A wait that is already satisfied when
  it is issued (``Resource.request`` with a free slot, ``Store.get``
  with an item queued, ``Semaphore.acquire`` with a token left) comes
  back *already processed*, and a process that yields a processed event
  continues inline, in a loop, without a dispatch.
* Events may have multiple waiters (processes and derived events), each
  notified in subscription order.
* :class:`Interrupt` supports SimPy-style process interruption, used by
  the capability-revocation paths in the MDS model.
* :meth:`Engine.sleep` hands out pooled one-shot timeouts for hot paths
  that ``yield`` them directly and never retain a reference.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for violations of engine invariants (e.g. re-triggering)."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, callbacks not yet run
_PROCESSED = 2  # callbacks have run

#: Default scheduling priority; lower values run first at equal times.
_DEFAULT_PRIORITY = 1

_INF = float("inf")


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them
    on the engine's heap, and when the clock reaches their time the engine
    runs their callbacks (resuming any waiting processes).

    Waiter callbacks are stored as one inline slot (``_cb``) plus an
    overflow list (``_cbs``): the overwhelmingly common case is a single
    waiter, and the inline slot avoids allocating a list per event.
    """

    __slots__ = ("engine", "_state", "_value", "_ok", "_cb", "_cbs",
                 "triggered_by")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._state = _PENDING
        self._value: Any = None
        self._ok = True
        self._cb: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list] = None
        #: The process that triggered this event (None for host context).
        #: Gives analysis tooling (repro.analysis.races) the causality
        #: edge "whoever succeeded the event happens-before its waiters".
        self.triggered_by: Optional["Process"] = None

    # -- inspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        if self._state == _PENDING:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    @property
    def callbacks(self) -> list:
        """Registered waiter callbacks, in subscription order (a copy)."""
        out = [] if self._cb is None else [self._cb]
        if self._cbs is not None:
            out.extend(self._cbs)
        return out

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _TRIGGERED
        self._value = value
        self._ok = True
        engine = self.engine
        self.triggered_by = engine._active
        # Inlined Engine._schedule fast path: succeed() is the hottest
        # call in the simulator (every resume/grant/completion goes
        # through it), so the zero-delay case avoids the extra frame.
        if delay == 0.0:
            heap = engine._heap
            if not heap or heap[0][0] > engine._now or (
                heap[0][0] == engine._now and heap[0][1] > _DEFAULT_PRIORITY
            ):
                engine._now_queue.append(self)
                return self
            heapq.heappush(
                heap, (engine._now, _DEFAULT_PRIORITY, next(engine._seq), self)
            )
            return self
        engine._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exc``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._value = exc
        self._ok = False
        self.triggered_by = self.engine._active
        self.engine._schedule(self, delay)
        return self

    def _satisfy(self, value: Any = None) -> None:
        """Succeed *already processed*: the wait was over when it was
        issued (a free slot, a queued item, a spare token), so no engine
        event is dispatched for it — the process that yields this event
        carries on inline (see :meth:`Process._step`)."""
        self._state = _PROCESSED
        self._value = value

    def _abandon(self) -> None:
        """The process waiting on this event was interrupted before the
        event reached it.  Events that reserve something for their
        waiter — a resource slot, a store item, a semaphore token —
        override this to hand it back, whether the event is still
        pending or already triggered but not yet dispatched; a plain
        event reserves nothing."""

    # -- engine internals ----------------------------------------------
    def _process_callbacks(self) -> None:
        self._state = _PROCESSED
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
        cbs = self._cbs
        if cbs is not None:
            self._cbs = None
            for cb in cbs:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb``; runs immediately if the event already fired."""
        if self._state == _PROCESSED:
            cb(self)
        elif self._cb is None and self._cbs is None:
            self._cb = cb
        elif self._cbs is None:
            self._cbs = [cb]
        else:
            self._cbs.append(cb)

    def _discard_callback(self, cb: Callable[["Event"], None]) -> None:
        """Remove ``cb`` if registered (no-op otherwise)."""
        if self._cb is not None and self._cb == cb:
            # Promote the oldest overflow callback into the inline slot
            # so subscription order is preserved.
            if self._cbs:
                self._cb = self._cbs.pop(0)
                if not self._cbs:
                    self._cbs = None
            else:
                self._cb = None
            return
        if self._cbs is not None:
            try:
                self._cbs.remove(cb)
            except ValueError:
                return
            if not self._cbs:
                self._cbs = None


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(engine)
        self.delay = float(delay)
        self.succeed(value, delay=self.delay)


class _PooledTimeout(Event):
    """A recyclable one-shot timeout handed out by :meth:`Engine.sleep`.

    After its callbacks run it is returned to the engine's free list and
    later re-initialized for a new sleep, so steady-state hot loops pay
    zero event allocations.  Contract: the caller ``yield``s it exactly
    once and never retains a reference (see docs/PERFORMANCE.md).
    Recycling is suppressed while a trace hook is attached or pooling is
    disabled (``Engine.pool_limit = 0``, e.g. by the race detector,
    whose causality walk may hold events across instants).
    """

    __slots__ = ()

    def _process_callbacks(self) -> None:
        Event._process_callbacks(self)
        engine = self.engine
        pool = engine._timeout_pool
        if engine.trace is None and len(pool) < engine.pool_limit:
            self._value = None
            self.triggered_by = None
            pool.append(self)


class Process(Event):
    """A running simulated process wrapping a generator.

    The process itself is an event that fires (with the generator's
    return value) when the generator finishes, so processes can wait on
    each other simply by yielding them.
    """

    __slots__ = ("generator", "name", "_waiting_on", "last_resumed_by",
                 "_bound_resume", "obs_span")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: The event whose firing most recently resumed this process;
        #: with Event.triggered_by this forms the happens-before chain
        #: the same-instant race detector walks.
        self.last_resumed_by: Optional[Event] = None
        # One bound method reused for every wait registration (a fresh
        # bound-method object per step would be allocation churn).
        self._bound_resume = self._resume
        #: Observability span context (see :mod:`repro.obs.spans`).
        #: Inherited from whatever context spawns the process — the
        #: active process, or the host driver's ``engine.host_span`` —
        #: so Dapper-style traces follow fan-out across processes.
        #: None everywhere unless a tracer is in use.
        active = engine._active
        self.obs_span = active.obs_span if active is not None else engine.host_span
        # Kick-start on the next engine step at the current time.
        init = Event(engine)
        init._cb = self._bound_resume
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is told it lost its waiter
        (:meth:`Event._abandon`), so a slot, item or token it holds for
        the process — queued for, or granted but not yet delivered —
        goes to the next waiter instead of a dead one.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is not None:
            if target.triggered and not target._ok:
                # The awaited event has already failed; its exception is
                # on the heap and about to be delivered.  Injecting an
                # Interrupt now would detach the process from it and mask
                # the original failure (the interrupt-during-crash race),
                # so the interrupt is discarded in favour of the failure.
                return
            target._discard_callback(self._bound_resume)
            target._abandon()
            self._waiting_on = None
        wake = Event(self.engine)

        def _deliver(ev: Event) -> None:
            self.last_resumed_by = ev
            self._throw(Interrupt(cause))

        wake._cb = _deliver
        wake.succeed()

    # -- stepping --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        self._waiting_on = None
        self.last_resumed_by = event
        if event._ok:
            self._step(self.generator.send, event._value)
        else:
            self._step(self.generator.throw, event._value)

    def _throw(self, exc: BaseException) -> None:
        if self._state != _PENDING:
            return
        self._waiting_on = None
        self._step(self.generator.throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        engine = self.engine
        prev_active = engine._active
        engine._active = self
        try:
            while True:
                try:
                    target = advance(arg)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - propagate as failure
                    self.fail(exc)
                    return
                if not isinstance(target, Event):
                    self.fail(
                        TypeError(
                            f"process {self.name!r} yielded {target!r}; "
                            "processes must yield Event instances"
                        )
                    )
                    return
                if target._state != _PROCESSED:
                    self._waiting_on = target
                    target.add_callback(self._bound_resume)
                    return
                # A wait that is already over is not an event: carry on
                # in this loop (not through add_callback -> _resume ->
                # _step, which would recurse once per such yield).
                self.last_resumed_by = target
                if target._ok:
                    advance = self.generator.send
                else:
                    advance = self.generator.throw
                arg = target._value
        finally:
            engine._active = prev_active


class AllOf(Event):
    """Fires when every child event has fired; value is a list of values.

    Fails as soon as any child fails (with that child's exception).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for idx, ev in enumerate(self._children):
            ev.add_callback(lambda fired, i=idx: self._on_child(i, fired))

    def _on_child(self, idx: int, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if ev._ok:
            self.succeed((idx, ev._value))
        else:
            self.fail(ev._value)


class Engine:
    """The simulation clock and scheduler.

    Example::

        eng = Engine()
        def hello():
            yield Timeout(eng, 3.0)
            return "done"
        p = eng.process(hello())
        eng.run()
        assert eng.now == 3.0 and p.value == "done"
    """

    #: Default cap on the pooled-timeout free list (per engine).
    DEFAULT_POOL_LIMIT = 64

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        #: FIFO of already-due events (the zero-delay fast path); always
        #: drained before the heap.  Every entry is at time ``_now`` with
        #: default priority and a conceptually-larger seq than anything
        #: on the heap at that instant (enforced at append time).
        self._now_queue: deque[Event] = deque()
        self._seq = itertools.count()
        self.processes_started = 0
        #: The process currently being stepped (None between steps /
        #: in host-driver context).  Maintained by Process._step.
        self._active: Optional[Process] = None
        #: Optional ``hook(t, event)`` called as each event is processed
        #: (:class:`repro.analysis.causality.CausalityTracker` sets
        #: it); None keeps the hot loop branch-predictable and cheap.
        self.trace = None
        #: Free list for :meth:`sleep`; instrumentation that inspects
        #: events after dispatch (e.g. the race detector) sets
        #: ``pool_limit = 0`` to disable recycling.
        self._timeout_pool: list[_PooledTimeout] = []
        self.pool_limit = self.DEFAULT_POOL_LIMIT
        #: Observability span for host-driver context (the analogue of
        #: ``Process.obs_span`` when no process is active); processes
        #: spawned from the host inherit it.  None unless a tracer set it.
        self.host_span = None
        #: Optional ``hook(delay)`` called on every :meth:`sleep` — the
        #: opt-in profiling hook ``repro.obs`` uses to attribute
        #: simulated busy time to the active span.  None keeps the hot
        #: path to a single predictable branch.
        self.sleep_hook = None
        #: Optional ready-set scheduler ``hook(events) -> index``.  When
        #: set, at every instant where more than one event is tied for
        #: dispatch at equal ``(time, priority)``, the hook is shown the
        #: tied events (in default seq order) and picks which fires next
        #: (see :meth:`_take_tied`).  Choosing index 0 everywhere
        #: reproduces the default schedule exactly.  This is the model
        #: checker's entry point (repro.analysis.model); None (the
        #: default) costs production runs one branch per event.
        self.scheduler = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process currently executing, or None in host context."""
        return self._active

    # -- construction helpers -------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Event:
        """A pooled one-shot timeout for hot paths.

        Semantically identical to :class:`Timeout` with one restriction:
        the returned event must be ``yield``-ed directly and not stored,
        combined (``AllOf``/``AnyOf``) or re-inspected afterwards — it is
        recycled for reuse as soon as its callbacks have run.
        """
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay!r}")
        if self.sleep_hook is not None:
            self.sleep_hook(delay)
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
            ev._state = _PENDING
            ev._cb = None
            ev._cbs = None
            ev._ok = True
        else:
            ev = _PooledTimeout(self)
        ev.succeed(value, delay=delay)
        return ev

    def event(self) -> Event:
        return Event(self)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        self.processes_started += 1
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if delay == 0.0 and priority == _DEFAULT_PRIORITY:
            # Fast path: the event is due *now*.  It may jump the heap
            # only if nothing on the heap is also due now — a new event
            # always holds the largest seq, so anything already heaped at
            # this instant (and default-or-better priority) sorts first.
            heap = self._heap
            if not heap or heap[0][0] > self._now or (
                heap[0][0] == self._now and heap[0][1] > priority
            ):
                self._now_queue.append(event)
                return
        heapq.heappush(self._heap, (self._now + delay, priority, next(self._seq), event))

    # -- running ----------------------------------------------------------
    def _take_tied(self, scheduler) -> Event:
        """Remove and return the event ``scheduler`` picks among those
        tied for dispatch, advancing the clock to it.

        Tied means dispatchable next at equal ``(time, priority)``; the
        hook sees them in default (seq) order, so index 0 everywhere
        reproduces the default schedule.  Events at different priorities
        are never offered together: their relative order is a modeled
        guarantee, not a schedule artifact.
        """
        queue = self._now_queue
        heap = self._heap
        if queue and not (
            heap and heap[0][1] < _DEFAULT_PRIORITY and heap[0][0] <= self._now
        ):
            # FIFO entries were all appended before any same-instant
            # default-priority heap entry could be pushed (the append
            # guard forbids coexistence in the other order), so the
            # default order is queue first, then heap entries by seq.
            when, prio, fifo = self._now, _DEFAULT_PRIORITY, len(queue)
            tied = list(queue)
        else:
            # The heap head leads: it is either alone in the schedule or
            # a same-instant higher-priority entry outranking the FIFO.
            when, prio, fifo = heap[0][0], heap[0][1], 0
            tied = []
        entries = sorted(e for e in heap if e[0] == when and e[1] == prio)
        tied.extend(e[3] for e in entries)
        index = scheduler(tied) if len(tied) > 1 else 0
        if not 0 <= index < len(tied):
            raise SimulationError(
                f"scheduler chose index {index} of {len(tied)} tied events"
            )
        if index < fifo:
            del queue[index]
        elif entries[index - fifo] is heap[0]:
            heapq.heappop(heap)
        else:
            heap.remove(entries[index - fifo])
            heapq.heapify(heap)
        self._now = when
        return tied[index]

    def _dispatch(self, until: float = _INF, count: Optional[int] = None) -> None:
        """The kernel: process pending events in order, stopping before
        the first one later than ``until`` (inclusive bound) or after
        ``count`` dispatches (None: unbounded).

        The ``scheduler`` hook is read once here; ``trace`` is read per
        event so instrumentation may attach or detach mid-run.
        """
        queue = self._now_queue
        heap = self._heap
        heappop = heapq.heappop
        scheduler = self.scheduler
        for _ in itertools.repeat(None) if count is None else range(count):
            if not queue and (not heap or heap[0][0] > until):
                return
            if scheduler is not None:
                event = self._take_tied(scheduler)
            elif not queue:
                item = heappop(heap)
                self._now = item[0]
                event = item[3]
            elif heap and heap[0][1] < _DEFAULT_PRIORITY and heap[0][0] <= self._now:
                # A same-instant, higher-priority heap entry outranks the
                # FIFO (the fast path never admits those).
                event = heappop(heap)[3]
            else:
                event = queue.popleft()
            if self.trace is not None:
                self.trace(self._now, event)
            event._process_callbacks()

    def step(self) -> None:
        """Advance the clock to, and process, the next scheduled event."""
        if not (self._now_queue or self._heap):
            raise SimulationError("step from an empty schedule")
        self._dispatch(count=1)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._now_queue:
            return self._now
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or the clock passes ``until``.

        When ``until`` is given the clock is left exactly at ``until``
        (standard DES semantics), even if no event fires there.
        """
        if until is None:
            self._dispatch()
            return
        if until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        self._dispatch(until)
        self._now = until
