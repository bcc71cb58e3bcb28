"""The client's buffered journal writer.

:class:`LocalJournal` is the client's in-memory journal (Append Client
Journal).  Appending is a pure memory write at ~11K events/s; the
journal can then be persisted to a local disk (Local Persist), pushed
into the object store through a striper (Global Persist), or replayed
(Volatile / Nonvolatile Apply).  The MDS's own segmented journal
(Stream) is :class:`repro.mds.journal.MDSJournal`.

Persistence charges simulated I/O at
:data:`~repro.journal.events.WIRE_EVENT_BYTES` per event, while storing
the compact real encoding.
"""

from __future__ import annotations

from itertools import count
from typing import Generator, List, Sequence

from repro.journal.events import EventType, JournalEvent, WIRE_EVENT_BYTES
from repro.journal.format import JournalCodec
from repro.rados.striper import Striper
from repro.sim.disk import Disk
from repro.sim.engine import Engine, Event

__all__ = ["LocalJournal"]


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

    def extend_creates(
        self, paths: Sequence[str], inos: Sequence[int], mtime: float
    ) -> List[JournalEvent]:
        """Append one CREATE per path, each with the inode number at its
        position (as many as both sequences hold), built with its
        sequence number in place; returns them.  The caller vouches for
        the fields (absolute paths, non-negative inode numbers): nothing
        is validated per event."""
        trusted, client_id = JournalEvent.trusted, self.client_id
        create = EventType.CREATE
        batch = [
            trusted(create, path, ino, 0o644, 0, 0, mtime, None, seq, client_id)
            for seq, path, ino in zip(count(self._next_seq), paths, inos)
        ]
        self.events += batch
        self._next_seq += len(batch)
        return batch

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
        events = JournalCodec.scan_stream(data).events
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
