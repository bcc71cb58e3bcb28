"""Contended resources for the DES kernel.

Two primitives cover everything the stack needs:

* :class:`Slots` — a fixed number of slots with a FIFO wait queue.
  Models disk queues, stripe-object locks and the MDS dispatch window.
  (A network link is no slot: it computes its FIFO departures when a
  message is sent, see :mod:`repro.sim.network`.)
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Models message queues between daemons.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.engine import _PENDING, Engine, Event, SimulationError

__all__ = ["SlotGrant", "Slots", "Store", "StoreGet"]


class SlotGrant(Event):
    """Event returned by :meth:`Slots.acquire` when every slot is held;
    fires when a holder hands its slot over."""

    __slots__ = ("slots",)

    def __init__(self, slots: "Slots"):
        super().__init__(slots.engine)
        self.slots = slots

    def _abandon(self) -> None:
        # Queued: leave the queue.  Granted but not yet delivered: the
        # slot goes to the next waiter instead of leaking.
        if self._state == _PENDING:
            self.slots._waiters.remove(self)
        else:
            self.slots.release()


class Slots:
    """``capacity`` interchangeable slots with FIFO hand-over.

    A free slot is taken with no object and no event; a waiter gets one
    :class:`SlotGrant`, fired at the instant a holder releases.  Usage
    inside a process::

        grant = slots.acquire()
        if grant is not None:
            yield grant
        try:
            yield engine.sleep(service_time)
        finally:
            slots.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "slots"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        #: Slots held now (a hand-over keeps the count).
        self.held = 0
        self._waiters: deque[SlotGrant] = deque()

    def acquire(self) -> Optional[SlotGrant]:
        """Take a slot: None when one was free (it is held now), else
        the grant to wait on."""
        if self.held < self.capacity:
            self.held += 1
            return None
        grant = SlotGrant(self)
        self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Give a slot up, straight to the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        elif self.held:
            self.held -= 1
        else:
            raise SimulationError(f"release of {self.name} with no slot held")


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
