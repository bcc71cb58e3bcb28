"""Latency/bandwidth network model.

The paper's cluster uses 10 Gbit ethernet; metadata RPCs are small
(hundreds of bytes to a few KB) so their cost is dominated by per-message
latency and server CPU, while journal pushes (hundreds of MB) are
bandwidth-bound.  :class:`Link` models both: a transfer of ``nbytes``
takes ``latency + nbytes / bandwidth`` with the bandwidth portion
serialized on the link.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generator, Set, Tuple

from repro.sim.engine import Engine, Event
from repro.sim.resources import Resource

__all__ = ["Link", "Network", "PartitionError"]


class PartitionError(ConnectionError):
    """Raised when a transfer hits a severed endpoint pair."""


class Link:
    """A point-to-point link with fixed latency and shared bandwidth."""

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
        self._pipe = Resource(engine, capacity=1, name=f"{name}.pipe")
        self.bytes_sent = 0
        self.messages_sent = 0

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded time to move ``nbytes`` across this link."""
        return self.latency_s + nbytes / self.bandwidth_bps

    def transmit(self, nbytes: int) -> Generator[Event, None, None]:
        """Process body: occupy the link for the serialization portion.

        Latency overlaps with other transfers (it models propagation and
        protocol overhead), while the ``nbytes / bandwidth`` portion is
        serialized on the pipe.  A zero-latency link (every client<->MDS
        link, by calibration) has no propagation wait to schedule.
        """
        if nbytes < 0:
            raise ValueError("cannot transmit a negative byte count")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        req = self._pipe.request()
        yield req
        try:
            yield self.engine.sleep(nbytes / self.bandwidth_bps)
        finally:
            self._pipe.release(req)
        if self.latency_s > 0:
            yield self.engine.sleep(self.latency_s)


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

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, src: str, dst: str) -> bool:
        return bool(self._partitions) and frozenset((src, dst)) in self._partitions

    def send(self, src: str, dst: str, nbytes: int) -> Generator[Event, None, None]:
        """Process body transferring ``nbytes`` from ``src`` to ``dst``.

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
        yield from link.transmit(nbytes)

    @property
    def total_bytes(self) -> int:
        return sum(self._links[k].bytes_sent for k in sorted(self._links))

    @property
    def total_messages(self) -> int:
        return sum(self._links[k].messages_sent for k in sorted(self._links))
