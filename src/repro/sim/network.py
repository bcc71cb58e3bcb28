"""Latency/bandwidth network model.

The paper's cluster uses 10 Gbit ethernet; metadata RPCs are small
(hundreds of bytes to a few KB) so their cost is dominated by per-message
latency and server CPU, while journal pushes (hundreds of MB) are
bandwidth-bound.  :class:`Link` models both: a transfer of ``nbytes``
takes ``latency + nbytes / bandwidth`` with the bandwidth portion
serialized on the link.

A link is a single-server FIFO whose departures are computed, not
simulated: a send reserves the link's transmitter when it is issued
(``start = max(now, free_at)``, ``done = start + nbytes / bandwidth``)
and its sender waits on one :class:`Transfer` event, due at ``done +
latency``.  No grant, pipe or second sleep is dispatched, and every
arrival time is the float the same FIFO would reach by handing a pipe
from holder to holder (docs/PERFORMANCE.md §16).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Generator, Iterable, Set, Tuple

from repro.sim.engine import _PENDING, _TRIGGERED, Engine, Event

__all__ = ["Link", "Network", "PartitionError", "Transfer"]


class PartitionError(ConnectionError):
    """Raised when a transfer hits a severed endpoint pair."""


class _Leg:
    """One message's reservation of one link, issued at ``now``: on the
    wire from ``start`` to ``done``, delivered by ``wake``."""

    __slots__ = ("link", "wake", "dt", "start", "done")

    def __init__(self, link: "Link", wake: "Transfer", now: float, dt: float):
        self.link = link
        self.wake = wake
        self.dt = dt
        free = link.free_at
        self.start = free if free > now else now
        self.done = self.start + dt


class Transfer(Event):
    """The one event a send waits on: due when the last of its messages
    has crossed its link and its latency.

    An interrupted sender gives every link it still holds back at the
    interrupt instant (:meth:`_abandon`): its transmission ends there,
    and the messages queued behind it on that link move up, each to the
    time the old pipe hand-over would have granted it.
    """

    __slots__ = ("legs",)

    def _arrival(self) -> float:
        return max(leg.done + leg.link.latency_s for leg in self.legs)

    def _abandon(self) -> None:
        engine = self.engine
        engine._unschedule(self)
        now = engine._now
        for leg in self.legs:
            if leg.done > now:
                leg.link._give_back(leg, now)


class Link:
    """A point-to-point link with fixed latency and shared bandwidth.

    ``free_at`` is when its transmitter next falls idle; ``_legs`` holds,
    in FIFO order, the reservations that may not have left it yet.
    """

    def __init__(
        self,
        engine: Engine,
        latency_s: float = 50e-6,
        bandwidth_bps: float = 10e9 / 8,
        name: str = "link",
    ):
        if latency_s < 0 or bandwidth_bps <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        self.engine = engine
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.name = name
        self.free_at = 0.0
        self._legs: deque[_Leg] = deque()
        self.bytes_sent = 0
        self.messages_sent = 0

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded time to move ``nbytes`` across this link."""
        return self.latency_s + nbytes / self.bandwidth_bps

    def _give_back(self, leg: _Leg, now: float) -> None:
        """End ``leg``'s transmission at ``now`` (or at its start, when
        it was still queued) and re-time the reservations behind it:
        each was issued by ``now``, so each starts when the one before
        it ends, as a pipe hand-over would have granted it."""
        legs = self._legs
        index = legs.index(leg)
        del legs[index]
        prev = leg.start if leg.start > now else now
        for later in list(legs)[index:]:
            later.start = prev
            later.done = prev = prev + later.dt
            wake = later.wake
            if wake._state == _TRIGGERED:
                # Off the schedule, then on again at the new arrival
                # (``_trigger`` takes only a pending event).
                self.engine._unschedule(wake)
                wake._state = _PENDING
                wake._trigger(None, True, wake._arrival())
        self.free_at = prev


class Network:
    """A mesh of named endpoints with per-pair links created on demand."""

    def __init__(
        self,
        engine: Engine,
        latency_s: float = 50e-6,
        bandwidth_bps: float = 10e9 / 8,
    ):
        self.engine = engine
        self.default_latency_s = latency_s
        self.default_bandwidth_bps = bandwidth_bps
        self._links: Dict[Tuple[str, str], Link] = {}
        #: Severed endpoint pairs (undirected); see :meth:`partition`.
        self._partitions: Set[FrozenSet[str]] = set()
        self.messages_dropped = 0

    def link(self, src: str, dst: str) -> Link:
        """Get (creating if needed) the directed link ``src -> dst``."""
        key = (src, dst)
        lk = self._links.get(key)
        if lk is None:
            lk = Link(
                self.engine,
                latency_s=self.default_latency_s,
                bandwidth_bps=self.default_bandwidth_bps,
                name=f"{src}->{dst}",
            )
            self._links[key] = lk
        return lk

    # -- fault injection ---------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Sever the (undirected) pair ``a <-> b``; transfers raise."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b``."""
        self._partitions.discard(frozenset((a, b)))

    def is_partitioned(self, src: str, dst: str) -> bool:
        return bool(self._partitions) and frozenset((src, dst)) in self._partitions

    def _reserve(self, src: str, dst: str, nbytes: int, wake: Transfer) -> _Leg:
        """Charge ``src -> dst`` one ``nbytes`` message and reserve the
        link's transmitter for it, behind every reservation before it.

        Raises :class:`PartitionError` when the pair is partitioned — the
        message is charged nothing and dropped (fail-fast; retry policy
        is the caller's concern, see ``repro.client.client.RetryPolicy``).
        """
        # The steady state (nothing severed, the link already made)
        # makes no call here: every RPC message passes this way twice.
        if self._partitions and self.is_partitioned(src, dst):
            self.messages_dropped += 1
            raise PartitionError(f"network partition between {src} and {dst}")
        link = self._links.get((src, dst)) or self.link(src, dst)
        if nbytes < 0:
            raise ValueError("cannot transmit a negative byte count")
        link.messages_sent += 1
        link.bytes_sent += nbytes
        now = self.engine._now
        reserved = link._legs
        while reserved and reserved[0].done <= now:
            reserved.popleft()
        leg = _Leg(link, wake, now, nbytes / link.bandwidth_bps)
        link.free_at = leg.done
        reserved.append(leg)
        return leg

    def send(self, src: str, dst: str, nbytes: int) -> Generator[Event, None, None]:
        """Process body transferring ``nbytes`` from ``src`` to ``dst``.

        Latency overlaps with other transfers (it models propagation and
        protocol overhead), while the ``nbytes / bandwidth`` portion is
        serialized on the link, in FIFO order.  The sender waits once,
        until the message arrives; on a zero-latency link (every
        client<->MDS link, by calibration) that is when its last byte
        leaves.  The engine's ``sleep_hook`` sees the transmit time,
        then the latency when there is one.
        """
        engine = self.engine
        wake = Transfer(engine)
        leg = self._reserve(src, dst, nbytes, wake)
        wake.legs = (leg,)
        latency_s = leg.link.latency_s
        hook = engine.sleep_hook
        if hook is not None:
            hook(leg.dt)
            if latency_s > 0:
                hook(latency_s)
        yield wake._trigger(None, True, leg.done + latency_s)
        wake.legs = None  # arrived: let the wake and its leg go by refcount

    def send_all(
        self, src: str, dsts: Iterable[str], nbytes: int
    ) -> Generator[Event, None, None]:
        """Process body sending one ``nbytes`` message from ``src`` to
        each of ``dsts`` at once; the sender waits once, until the last
        has arrived.

        Every link is reserved, and charged, before anything waits; a
        partitioned pair then raises its :class:`PartitionError` (the
        first one).  The ``sleep_hook`` sees every transmit time, then
        every nonzero latency.
        """
        wake = Transfer(self.engine)
        legs = []
        failure = None
        for dst in dsts:
            try:
                legs.append(self._reserve(src, dst, nbytes, wake))
            except PartitionError as exc:
                failure = failure or exc
        hook = self.engine.sleep_hook
        if hook is not None:
            for leg in legs:
                hook(leg.dt)
            for leg in legs:
                if leg.link.latency_s > 0:
                    hook(leg.link.latency_s)
        if failure is not None:
            raise failure
        if legs:
            wake.legs = legs
            yield wake._trigger(None, True, wake._arrival())
            wake.legs = None

    @property
    def total_bytes(self) -> int:
        return sum(self._links[k].bytes_sent for k in sorted(self._links))

    @property
    def total_messages(self) -> int:
        return sum(self._links[k].messages_sent for k in sorted(self._links))
