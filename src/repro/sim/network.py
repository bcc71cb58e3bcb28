"""Latency/bandwidth network model.

The paper's cluster uses 10 Gbit ethernet; metadata RPCs are small
(hundreds of bytes to a few KB) so their cost is dominated by per-message
latency and server CPU, while journal pushes (hundreds of MB) are
bandwidth-bound.  :class:`Link` models both: a transfer of ``nbytes``
takes ``latency + nbytes / bandwidth`` with the bandwidth portion
serialized on the link.

A link is a single-server FIFO whose departures are computed, not
simulated: a send reserves the link's transmitter when it is issued
(``start = max(issued, free_at)``, ``done = start + nbytes /
bandwidth``) and its sender waits on one :class:`Transfer` event, due
at ``done + latency``.  No grant, pipe or second sleep is dispatched,
and every arrival time is the float the same FIFO would reach by
handing a pipe from holder to holder (docs/PERFORMANCE.md §16).

A message may also be issued at a known future instant: an MDS reply
leaves when its journal commit does, and :meth:`Network.reply` puts it
on the wire while the MDS is still serving, as one :class:`Reply` wake
at its arrival (docs/PERFORMANCE.md §17).  A link therefore orders its
messages by issue instant, ties in the order they were issued; a
message issued ahead of one already reserved goes in front of it, and
the messages behind it are re-timed.  Until its instant a reply is not
yet issued: a partition or heal re-decides it, and its receiver may
withdraw it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Generator, Iterable, List, Set, Tuple

from repro.sim.engine import _PENDING, _TRIGGERED, Engine, Event

__all__ = ["Link", "Network", "PartitionError", "Reply", "Transfer"]


class PartitionError(ConnectionError):
    """Raised when a transfer hits a severed endpoint pair."""


class _Leg:
    """One message's reservation of one link, issued at ``issued``: on
    the wire from ``start`` to ``done``, delivered by ``wake``."""

    __slots__ = ("link", "wake", "dt", "issued", "start", "done")

    def __init__(self, link: "Link", wake: "Transfer", issued: float, dt: float):
        self.link = link
        self.wake = wake
        self.dt = dt
        self.issued = issued
        free = link.free_at
        self.start = free if free > issued else issued
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


class Reply(Transfer):
    """The wake of a reply issued at a known future instant ``due``
    (:meth:`Network.reply`): due at its arrival, carrying ``response``,
    or failing with :class:`PartitionError` at ``due`` when the pair is
    severed then.

    Made by the receiver's request (``MetadataServer.submit``) before
    the reply exists; ``due`` stays None until the sender issues it.
    """

    __slots__ = ("network", "src", "dst", "nbytes", "due", "response",
                 "withdrawn")

    def __init__(self, network: "Network", src: str, dst: str, nbytes: int):
        super().__init__(network.engine)
        self.legs = None
        self.network = network
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.due: float | None = None
        self.response = None
        self.withdrawn = False

    def withdraw(self) -> bool:
        """Take the reply back unless it was issued before now: a
        reply due at or after this instant never goes on the wire (its
        leg is given back and uncharged), and one not yet sent is
        skipped when it is.  Returns False, withdrawing nothing, when
        the reply is already on its way."""
        due = self.due
        if due is not None:
            if due < self.engine._now:
                return False
            self.network._unissue(self)
        self.withdrawn = True
        return True

    def received(self) -> None:
        """The receiver's half of the send, run when it wakes: the
        engine's ``sleep_hook`` sees the reply's transmit time, then its
        latency when there is one, as the sender of a
        :meth:`Network.send` would have them."""
        leg = self.legs[0]
        hook = self.engine.sleep_hook
        if hook is not None:
            hook(leg.dt)
            if leg.link.latency_s > 0:
                hook(leg.link.latency_s)
        self.legs = None  # arrived: let the leg go by refcount

    def _abandon(self) -> None:
        # A receiver that stops waiting withdraws a reply not yet
        # issued; one already on the wire ends there, like a send.
        if not self.withdraw():
            Transfer._abandon(self)


class Link:
    """A point-to-point link with fixed latency and shared bandwidth.

    ``free_at`` is when its transmitter next falls idle; ``_legs`` holds,
    in issue order, the reservations that may not have left it yet.  A
    reservation may be issued at a future instant (a reply, issued when
    its commit is done): it starts no earlier than that instant, and one
    issued at an earlier instant later still goes in front of it.
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

    def _insert(self, leg: _Leg) -> None:
        """Queue ``leg``, issued before the last reservation's issue
        instant, in front of every reservation issued after it, and
        re-time it and those."""
        legs = self._legs
        index = len(legs)
        while index and legs[index - 1].issued > leg.issued:
            index -= 1
        legs.insert(index, leg)
        self._retime(index, legs[index - 1].done if index else leg.issued)

    def _give_back(self, leg: _Leg, now: float) -> None:
        """End ``leg``'s transmission at ``now`` (or take it off the
        queue, when it had not started) and re-time the reservations
        behind it."""
        legs = self._legs
        index = legs.index(leg)
        del legs[index]
        # A queued leg gives back the time from where the one before it
        # ends (its start, unless it waited for its issue instant).
        queued = leg.start > now and index
        self._retime(index, legs[index - 1].done if queued else now)

    def _retime(self, index: int, prev: float) -> None:
        """Lay the reservations from ``index`` on back to back from
        ``prev``: each starts at its issue instant or when the one
        before it ends, whichever is later — for one issued by now,
        when the one before ends, as a pipe hand-over would have
        granted it — and a wake already scheduled moves to its new
        arrival."""
        legs = self._legs
        for i in range(index, len(legs)):
            later = legs[i]
            issued = later.issued
            later.start = start = prev if prev > issued else issued
            later.done = prev = start + later.dt
            wake = later.wake
            if wake._state == _TRIGGERED:
                # Off the schedule, then on again at the new arrival
                # (``_trigger`` takes only a pending event).
                self.engine._unschedule(wake)
                wake._state = _PENDING
                wake._trigger(wake._value, wake._ok, wake._arrival())
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
        #: Replies dropped at a partition and not yet due: a heal
        #: before their issue instant puts them back on the wire.
        self._dropped: List[Reply] = []

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
        """Sever the (undirected) pair ``a <-> b``; transfers raise.

        A reply between them not yet issued (due at or after now) is
        dropped instead of sent.
        """
        self._partitions.add(frozenset((a, b)))
        now = self.engine._now
        for key in ((a, b), (b, a)):
            link = self._links.get(key)
            if link is None:
                continue
            for leg in list(link._legs):
                wake = leg.wake
                if leg.issued >= now and wake.__class__ is Reply:
                    self._unissue(wake)
                    self._issue(wake)

    def heal(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b``.

        A reply between them dropped at the partition but not yet due
        (nor failed) goes on the wire after all.
        """
        pair = frozenset((a, b))
        self._partitions.discard(pair)
        now = self.engine._now
        for wake in list(self._dropped):
            if wake.due < now or wake._state != _TRIGGERED:
                self._dropped.remove(wake)
            elif frozenset((wake.src, wake.dst)) == pair:
                self._unissue(wake)
                self._issue(wake)

    def is_partitioned(self, src: str, dst: str) -> bool:
        return bool(self._partitions) and frozenset((src, dst)) in self._partitions

    def _reserve(
        self, src: str, dst: str, nbytes: int, wake: Transfer, issued: float
    ) -> _Leg:
        """Charge ``src -> dst`` one ``nbytes`` message issued at
        ``issued`` (now, or later for a reply) and reserve the link's
        transmitter for it, behind every reservation issued by then.

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
        leg = _Leg(link, wake, issued, nbytes / link.bandwidth_bps)
        if reserved and reserved[-1].issued > issued:
            link._insert(leg)
        else:
            link.free_at = leg.done
            reserved.append(leg)
        return leg

    def reply(self, wake: Reply, response, due: float) -> None:
        """Issue ``wake``'s reply, carrying ``response``, at the instant
        ``due`` (now or later): the sender does not wait, and the
        receiver waits once, on ``wake``, until the reply arrives.

        The reply is judged, charged and queued on its link as a send
        issued at ``due`` would be; until then it is not yet issued (see
        :meth:`partition`, :meth:`heal` and :meth:`Reply.withdraw`).  A
        withdrawn reply is not sent.
        """
        if wake.withdrawn:
            return
        wake.response = response
        wake.due = due
        self._issue(wake)

    def _issue(self, wake: Reply) -> None:
        """Decide ``wake``'s reply: on the wire, its wake due at its
        arrival; or, across a partition, dropped, uncharged and failing
        at its issue instant."""
        try:
            leg = self._reserve(wake.src, wake.dst, wake.nbytes, wake, wake.due)
        except PartitionError as exc:
            wake.legs = ()
            # Only a drop not yet due can be healed: let the others go.
            now = self.engine._now
            self._dropped = [w for w in self._dropped if w.due >= now]
            self._dropped.append(wake)
            wake._trigger(exc, False, wake.due)
        else:
            wake.legs = (leg,)
            wake._trigger(wake.response, True, leg.done + leg.link.latency_s)

    def _unissue(self, wake: Reply) -> None:
        """Undo :meth:`_issue` for a reply not yet issued: give its leg
        back and uncharge it, or uncount its drop; its wake leaves the
        schedule."""
        if wake.legs:
            leg = wake.legs[0]
            link = leg.link
            link.messages_sent -= 1
            link.bytes_sent -= wake.nbytes
            link._give_back(leg, self.engine._now)
        else:
            self.messages_dropped -= 1
            if wake in self._dropped:  # a heal may have let it go
                self._dropped.remove(wake)
        wake.legs = None
        if wake._state == _TRIGGERED:
            self.engine._unschedule(wake)
            wake._state = _PENDING

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
        leg = self._reserve(src, dst, nbytes, wake, engine._now)
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
        now = self.engine._now
        for dst in dsts:
            try:
                legs.append(self._reserve(src, dst, nbytes, wake, now))
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
