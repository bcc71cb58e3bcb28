"""Typed metadata update events.

One event records one namespace mutation (CephFS's ``EMetaBlob`` family,
flattened).  Events are value objects: the codec serializes them, the
metadata store replays them, and Cudele's merge paths filter them.

Real CephFS journal events average ~2.5 KB on the wire (inode + dentry +
dirfrag payload); our compact encoding is far smaller, so cost models
charge :data:`repro.calibration.JOURNAL_EVENT_BYTES` per event
instead of the encoded length.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

__all__ = ["EventType", "JournalEvent", "WIRE_EVENT_BYTES"]

#: Simulated on-the-wire/on-disk size of one journal event.  The paper
#: measures "about 2.5KB" of storage per journal update (Section V.A),
#: hence 678 MB journals for ~278K updates in Figure 6c.
WIRE_EVENT_BYTES = 2560


class EventType(enum.IntEnum):
    """Kinds of metadata updates the journal can carry."""

    CREATE = 1       # create a regular file
    MKDIR = 2        # create a directory
    UNLINK = 3       # remove a file
    RMDIR = 4        # remove an (empty) directory
    RENAME = 5       # move path -> target_path
    SETATTR = 6      # chmod/chown/utimes
    # 7 is retired: op numbers are wire values and are not reused.
    NOOP = 8         # padding/heartbeat entry (journal segment headers)
    EXPORT_PREP = 9     # migration: source froze the subtree for export
    IMPORT_COMMIT = 10  # migration: destination imported the subtree
    EXPORT_COMMIT = 11  # migration: source released authority


class _Fields(NamedTuple):
    op: EventType
    path: str
    ino: int = 0
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    mtime: float = 0.0
    target_path: Optional[str] = None
    seq: int = 0
    client_id: int = 0
    size: int = 0


_tuple_new = tuple.__new__


class JournalEvent(_Fields):
    """A single serialized-able metadata update.

    An immutable record backed by one tuple, so building it is one
    allocation (docs/PERFORMANCE.md §11).  Two events are equal, and
    hash alike, exactly when their fields are; being a tuple, an event
    also compares equal to a plain tuple of the same fields and orders
    like one, which no caller relies on.  ``_replace`` and ``_make``
    skip validation, like :meth:`trusted`, and are not used.

    Attributes
    ----------
    op:
        The mutation type.
    path:
        Absolute path the operation applies to (``/a/b/c``).
    ino:
        Inode number assigned or affected; 0 when not applicable.
    mode:
        POSIX mode bits (type bits included for CREATE/MKDIR).
    uid, gid:
        Ownership.
    mtime:
        Modification timestamp in simulated seconds.
    target_path:
        Destination path for RENAME.
    seq:
        Sequence number, assigned by the journaler at append time.
    client_id:
        Originating client, used by merge-priority rules.
    size:
        File size in bytes: the named inode's, carried so that replay
        rebuilds it; 0 when not applicable.  Last, so positional reads
        of the fields before it keep their indices.
    """

    __slots__ = ()

    def __new__(
        cls,
        op: EventType,
        path: str,
        ino: int = 0,
        mode: int = 0o644,
        uid: int = 0,
        gid: int = 0,
        mtime: float = 0.0,
        target_path: Optional[str] = None,
        seq: int = 0,
        client_id: int = 0,
        size: int = 0,
    ) -> "JournalEvent":
        if op.__class__ is not EventType:
            op = EventType(op)
        if path[:1] != "/":
            raise ValueError(f"event path must be absolute, got {path!r}")
        if op is EventType.RENAME and not target_path:
            raise ValueError("RENAME events require target_path")
        if ino < 0:
            raise ValueError("inode numbers are non-negative")
        return _tuple_new(cls, (
            op, path, ino, mode, uid, gid, mtime, target_path, seq, client_id,
            size,
        ))

    @staticmethod
    def trusted(
        op: EventType,
        path: str,
        ino: int,
        mode: int,
        uid: int,
        gid: int,
        mtime: float,
        target_path: Optional[str],
        seq: int,
        client_id: int,
        size: int,
    ) -> "JournalEvent":
        """Build an event from fields that are already known to satisfy
        the constructor's checks (a validated event being re-stamped, or
        a frame the codec has checked); nothing is validated again."""
        return _tuple_new(JournalEvent, (
            op, path, ino, mode, uid, gid, mtime, target_path, seq, client_id,
            size,
        ))

    def with_seq(self, seq: int) -> "JournalEvent":
        """Copy of this event with its journal sequence number set."""
        op, path, ino, mode, uid, gid, mtime, target_path, _, client_id, size = self
        return _tuple_new(JournalEvent, (
            op, path, ino, mode, uid, gid, mtime, target_path, seq, client_id,
            size,
        ))

    @property
    def is_mutation(self) -> bool:
        """Whether replaying this event changes the namespace."""
        return self.op not in (
            EventType.NOOP,
            EventType.EXPORT_PREP,
            EventType.IMPORT_COMMIT,
            EventType.EXPORT_COMMIT,
        )

    @property
    def parent_path(self) -> str:
        """Path of the directory containing :attr:`path`."""
        idx = self.path.rstrip("/").rfind("/")
        return self.path[:idx] or "/"

    @property
    def name(self) -> str:
        """Final path component."""
        return self.path.rstrip("/").rsplit("/", 1)[-1]
