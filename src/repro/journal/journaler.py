"""Buffered journal writers.

Two flavors mirror the paper's mechanisms:

* :class:`LocalJournal` — the client's in-memory journal (Append Client
  Journal).  Appending is a pure memory write at ~11K events/s; the
  journal can then be persisted to a local disk (Local Persist), pushed
  into the object store (Global Persist, via :class:`Journaler`), or
  replayed (Volatile / Nonvolatile Apply).

* :class:`Journaler` — the striped object-store journal used by the MDS
  (Stream) and by Global Persist.  It batches events into fixed-size
  *segments* (groups of journal events); the MDS dispatches segments to
  the object store and trims those that are no longer needed.

Both charge simulated I/O at :data:`~repro.journal.events.WIRE_EVENT_BYTES`
per event, while storing the compact real encoding.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.journal.events import JournalEvent, WIRE_EVENT_BYTES
from repro.journal.format import JournalCodec, JournalScan
from repro.rados.striper import Striper
from repro.sim.disk import Disk
from repro.sim.engine import Engine, Event

__all__ = ["LocalJournal", "Journaler"]


class LocalJournal:
    """A client-side, in-memory journal of metadata updates.

    This is the Append Client Journal mechanism's data structure: events
    are appended "without even checking the validity (e.g., if the file
    already exists for a create)" — validation is the application's (or
    the merge mechanism's) problem.
    """

    def __init__(self, engine: Engine, client_id: int = 0):
        self.engine = engine
        self.client_id = client_id
        self.events: List[JournalEvent] = []
        self._next_seq = 1

    def __len__(self) -> int:
        return len(self.events)

    def append(self, event: JournalEvent) -> JournalEvent:
        """Append an event (no consistency checks, by design)."""
        stamped = event.with_seq(self._next_seq)
        self._next_seq += 1
        self.events.append(stamped)
        return stamped

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended event will carry."""
        return self._next_seq

    def extend(self, events) -> List[JournalEvent]:
        """Append many events; returns them as stamped.  Events built
        with their numbers already in place (counting up from
        :attr:`next_seq`) are taken as they are."""
        stamped = [
            ev if ev.seq == seq else ev.with_seq(seq)
            for seq, ev in enumerate(events, self._next_seq)
        ]
        self.events.extend(stamped)
        self._next_seq += len(stamped)
        return stamped

    def clear(self) -> None:
        self.events.clear()

    def drain(self) -> List[JournalEvent]:
        """Remove and return all buffered events (namespace-sync batches)."""
        out = self.events
        self.events = []
        return out

    def restore(self, events) -> None:
        """Replace the buffer with already-stamped events (crash recovery:
        the persisted image carries the original sequence numbers)."""
        self.events = list(events)
        self._next_seq = (self.events[-1].seq + 1) if self.events else 1

    @property
    def wire_bytes(self) -> int:
        """Simulated serialized size (2.5 KB/event, per the paper)."""
        return len(self.events) * WIRE_EVENT_BYTES

    def serialize(self) -> bytes:
        """Real compact encoding (used for round-trips and recovery)."""
        return JournalCodec.encode_stream(self.events)

    @classmethod
    def deserialize(
        cls, engine: Engine, data: bytes, client_id: int = 0
    ) -> "LocalJournal":
        journal = cls(engine, client_id=client_id)
        events = JournalCodec.decode_stream(data, tolerate_truncation=True)
        journal.events = list(events)
        journal._next_seq = (events[-1].seq + 1) if events else 1
        return journal

    # -- persistence (process bodies) ------------------------------------
    def persist_local(self, disk: Disk) -> Generator[Event, None, int]:
        """Local Persist: write serialized log events to a local disk.

        Returns the number of bytes charged.  Overhead is the local
        disk's write bandwidth (paper, Section III-A.2).
        """
        nbytes = self.wire_bytes
        yield from disk.write(nbytes)
        return nbytes

    def persist_global(
        self, striper: Striper, src: str = "client"
    ) -> Generator[Event, None, int]:
        """Global Persist: push the journal into the object store.

        The striper spreads the write across OSDs, so the cost is the
        *aggregate* object-store bandwidth rather than one disk's.
        """
        data = self.serialize()
        factor = self.wire_bytes / max(1, len(data))
        yield from striper.write(0, data, src=src, charge_factor=factor)
        return self.wire_bytes


class Journaler:
    """The MDS's striped object-store journal (Stream mechanism).

    Events accumulate in an open segment; when a segment fills (or on
    explicit flush) it is dispatched — appended to the striped journal in
    the object store.  ``dispatch_size`` bounds how many segments may be
    in flight at once (the paper's Figure 3a tunable).
    """

    def __init__(
        self,
        engine: Engine,
        striper: Striper,
        segment_events: int = 1024,
        src: str = "mds",
    ):
        if segment_events < 1:
            raise ValueError("segment size must be >= 1 event")
        self.engine = engine
        self.striper = striper
        self.segment_events = segment_events
        self.src = src
        self._open_segment: List[JournalEvent] = []
        self._next_seq = 1
        self._write_offset = 0
        self._header_written = False
        self._next_segment_seq = 1
        self.events_journaled = 0
        self.segments_dispatched = 0
        self.expired_through_seq = 0

    def append(self, event: JournalEvent) -> tuple[JournalEvent, bool]:
        """Buffer an event; returns ``(stamped_event, segment_full)``."""
        stamped = event.with_seq(self._next_seq)
        self._next_seq += 1
        self._open_segment.append(stamped)
        self.events_journaled += 1
        return stamped, len(self._open_segment) >= self.segment_events

    @property
    def open_events(self) -> int:
        return len(self._open_segment)

    def take_segment(self) -> List[JournalEvent]:
        """Close the open segment and return its events."""
        seg, self._open_segment = self._open_segment, []
        return seg

    def extract_open(self, predicate) -> List[JournalEvent]:
        """Split the open segment: remove and return the events matching
        ``predicate``, keeping the rest buffered (order and stamped
        sequence numbers preserved).  Subtree migration uses this to lift
        a subtree's undispatched events out of the source's journal."""
        kept: List[JournalEvent] = []
        removed: List[JournalEvent] = []
        for ev in self._open_segment:
            (removed if predicate(ev) else kept).append(ev)
        self._open_segment = kept
        self.events_journaled -= len(removed)
        return removed

    def dispatch_segment(
        self, events: Optional[List[JournalEvent]] = None
    ) -> Generator[Event, None, int]:
        """Write one segment to the object store (process body).

        Returns the number of events written.  Charged at the wire size.
        """
        seg = self.take_segment() if events is None else events
        if not seg:
            return 0
        # Each dispatch is one checksummed wire segment; the first also
        # carries the stream header.  Sequence numbers are claimed here,
        # before yielding, so concurrent dispatches (the MDS dispatch
        # window) number segments in the same order as their reserved
        # byte offsets — recovery checks that order.
        seg_seq = self._next_segment_seq
        self._next_segment_seq += 1
        if not self._header_written:
            data = JournalCodec.encode_stream(seg, first_seq=seg_seq)
            self._header_written = True
        else:
            data = JournalCodec.encode_segment(seg_seq, seg)
        # Reserve the offset before yielding: concurrent dispatches must
        # not write over each other.
        offset = self._write_offset
        self._write_offset += len(data)
        factor = (len(seg) * WIRE_EVENT_BYTES) / max(1, len(data))
        yield from self.striper.write(offset, data, src=self.src, charge_factor=factor)
        self.segments_dispatched += 1
        return len(seg)

    def flush(self) -> Generator[Event, None, int]:
        """Dispatch whatever is buffered."""
        n = yield self.engine.process(self.dispatch_segment())
        return n

    def read_scan(self, dst: str = "client") -> Generator[Event, None, "JournalScan"]:
        """Recovery read: fetch the striped journal and run the verifying
        scan, returning the full :class:`JournalScan` (valid-prefix
        events plus damage classification).

        Journals written in counted-only mode (performance runs) carry
        placeholder bytes, not decodable events; they scan as damaged
        with no recoverable events.
        """
        data = yield self.engine.process(self.striper.read_all(dst=dst))
        return JournalCodec.scan_stream(data)

    def read_all(self, dst: str = "client") -> Generator[Event, None, List[JournalEvent]]:
        """Recovery read returning only the checksummed-valid prefix."""
        scan = yield self.engine.process(self.read_scan(dst=dst))
        return scan.events

    def trim(self, through_seq: int) -> None:
        """Mark events up to ``through_seq`` expired (applied to the store).

        The real implementation reclaims objects; we only track the
        watermark, which is all the evaluation needs.
        """
        if through_seq < self.expired_through_seq:
            raise ValueError("trim watermark cannot move backwards")
        self.expired_through_seq = through_seq
