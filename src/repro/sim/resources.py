"""Contended resources for the DES kernel.

Three primitives cover everything the stack needs:

* :class:`Resource` — a fixed number of slots with a FIFO wait queue.
  Models server CPU threads, disk queues, and the MDS dispatch window.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Models message queues between daemons.
* :class:`Semaphore` — a counting semaphore; models segment quotas.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.engine import _PENDING, Engine, Event, SimulationError

__all__ = ["Resource", "Store", "StoreGet", "Semaphore", "Request"]


class Request(Event):
    """Event returned by :meth:`Resource.request`; fires on acquisition
    (already processed when a slot was free)."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.engine)
        self.resource = resource

    def _abandon(self) -> None:
        # Queued: leave the queue.  Granted but not yet delivered: the
        # slot goes to the next waiter instead of leaking.
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with FIFO queueing.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield Timeout(engine, service_time)
        finally:
            resource.release(req)
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[Request] = deque()
        # Cumulative busy integral for utilization reporting.
        self._busy_time = 0.0
        self._last_change = 0.0

    # -- accounting -----------------------------------------------------
    def _account(self) -> None:
        now = self.engine._now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def busy_seconds(self) -> float:
        """Cumulative slot-busy integral since the start of the run.

        Windowed utilization is a delta of this quantity divided by the
        window length (see Disk.utilization users).
        """
        self._account()
        return self._busy_time

    def utilization(self, since: float = 0.0) -> float:
        """Average fraction of slots busy over the whole run.

        ``since`` only shortens the divisor (legacy behaviour); for true
        windows take :meth:`busy_seconds` deltas.
        """
        self._account()
        elapsed = self.engine.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    # -- acquire / release ------------------------------------------------
    def request(self) -> Request:
        req = Request(self)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            req._satisfy(self)
        else:
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        if req._state == _PENDING:
            # Cancelled while still queued.
            try:
                self._queue.remove(req)
            except ValueError:
                raise SimulationError("releasing a request not held or queued")
            return
        self._account()
        self._in_use -= 1
        if self._in_use < 0:
            raise SimulationError(f"double release on resource {self.name}")
        while self._queue and self._in_use < self.capacity:
            nxt = self._queue.popleft()
            self._in_use += 1
            nxt.succeed(self)


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the next item
    (already processed when one was queued).

    Carries a ``store`` back-reference so an interrupted getter can be
    cancelled — otherwise a dead waiter (e.g. a crashed daemon's request
    loop) would silently swallow the next ``put``.
    """

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.engine)
        self.store = store

    def _abandon(self) -> None:
        self.store.cancel(self)


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    def __init__(self, engine: Engine, name: str = "store"):
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if available)."""
        ev = StoreGet(self)
        if self._items:
            ev._satisfy(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def cancel(self, getter: Event) -> None:
        """Forget a getter whose process was interrupted/crashed.

        A getter that ``put`` already handed an item to, but whose event
        has not been dispatched yet, gives the item back: to the next
        parked getter, else to the head of the queue, where the next
        ``get`` / ``try_get`` finds it.
        """
        if getter.triggered and not getter.processed:
            if self._getters:
                self._getters.popleft().succeed(getter.value)
            else:
                self._items.appendleft(getter.value)
            return
        try:
            self._getters.remove(getter)
        except ValueError:
            pass


class _Acquire(Event):
    """Event returned by :meth:`Semaphore.acquire`; fires with a token
    (already processed when one was left)."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: "Semaphore"):
        super().__init__(semaphore.engine)
        self.semaphore = semaphore

    def _abandon(self) -> None:
        if self.triggered:  # token granted but not yet delivered
            self.semaphore.release()
        else:
            self.semaphore._waiters.remove(self)


class Semaphore:
    """Counting semaphore with FIFO wakeup order."""

    def __init__(self, engine: Engine, tokens: int, name: str = "semaphore"):
        if tokens < 0:
            raise ValueError("token count must be >= 0")
        self.engine = engine
        self.name = name
        self._tokens = tokens
        self._waiters: deque[Event] = deque()

    @property
    def tokens(self) -> int:
        return self._tokens

    def acquire(self) -> Event:
        ev = _Acquire(self)
        if self._tokens > 0:
            self._tokens -= 1
            ev._satisfy()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._tokens += 1
