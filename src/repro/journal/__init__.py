"""The CephFS-style metadata journal subsystem.

The journal is "the second way CephFS represents the file system
namespace": a log of metadata updates that can materialize the namespace
when replayed onto the metadata store.  Cudele re-uses this one format
everywhere — the MDS's Stream mechanism, the client's Append Client
Journal, Local Persist and Global Persist all write it, and
:meth:`repro.mds.mdstore.MetadataStore.apply_events` replays it, for a
merge (Volatile Apply) and for MDS recovery alike.

* :mod:`~repro.journal.events` — typed metadata update events.
* :mod:`~repro.journal.format` — binary codec with per-event CRCs.
* :mod:`~repro.journal.journaler` — the client's buffered journal,
  persisted to a local disk or striped into the object store (the MDS's
  segmented journal is :class:`repro.mds.journal.MDSJournal`).
"""

from repro.journal.events import EventType, JournalEvent
from repro.journal.format import (
    JOURNAL_MAGIC,
    JournalCodec,
    JournalFormatError,
)
from repro.journal.journaler import LocalJournal

__all__ = [
    "EventType",
    "JournalEvent",
    "JournalCodec",
    "JournalFormatError",
    "JOURNAL_MAGIC",
    "LocalJournal",
]
