"""Capabilities: the consistency machinery behind Figures 3b and 3c.

"To reduce the number of RPCs needed for consistency, clients can obtain
capabilities for reading and writing inodes, as well as caching reads
[and] buffering writes ... If a client has the directory inode cached it
can do metadata writes (e.g., create) with a single RPC.  If the client
is not caching the directory inode then it must do an extra RPC to
determine if the file exists." (paper Section II-B)

The MDS alone holds this state; a client learns what a write cost from
the reply's ``rpcs``.  The tracker keeps a per-directory capability
state:

* ``EXCLUSIVE`` — one client holds the read-caching/write-buffering cap
  and can resolve lookups locally: a create costs **1 RPC**.
* ``SHARED`` — a second client touched the directory; the cap was
  revoked, every writer must ``lookup()`` remotely first: **2 RPCs**
  per create, plus revocation work on the MDS.

Once a directory has gone ``SHARED`` it stays shared (CephFS re-issues
caps only after quiescence, and the paper's interference runs never
quiesce).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["CapState", "DirCaps", "CapTracker"]


class CapState(enum.Enum):
    """Capability mode of one directory inode."""

    UNHELD = "unheld"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"


@dataclass
class DirCaps:
    """Capability bookkeeping for one directory inode."""

    dir_ino: int
    state: CapState = CapState.UNHELD
    holder: Optional[int] = None


@dataclass(frozen=True)
class AccessOutcome:
    """What a write access to a directory costs.

    ``rpcs`` is the number of client→MDS round trips the operation
    needs (1 with a cached dir inode, 2 without); ``revoked`` marks a
    cap revocation triggered by this access (extra MDS work + a revoke
    message to the previous holder).
    """

    rpcs: int
    revoked: bool


# The three outcomes a write can have, shared: an outcome is immutable,
# so a write need not build one.
_WRITE_CACHED = AccessOutcome(rpcs=1, revoked=False)
_WRITE_REVOKED = AccessOutcome(rpcs=2, revoked=True)
_WRITE_SHARED = AccessOutcome(rpcs=2, revoked=False)


class CapTracker:
    """Per-MDS capability state machine."""

    def __init__(self):
        self._dirs: Dict[int, DirCaps] = {}
        self.revocations = 0
        self.grants = 0

    def state_of(self, dir_ino: int) -> CapState:
        caps = self._dirs.get(dir_ino)
        return caps.state if caps else CapState.UNHELD

    def holder_of(self, dir_ino: int) -> Optional[int]:
        caps = self._dirs.get(dir_ino)
        return caps.holder if caps else None

    def write_access(self, dir_ino: int, client_id: int) -> AccessOutcome:
        """Record a write (create/unlink) by ``client_id`` in ``dir_ino``.

        Returns the RPC count the operation costs and whether it caused
        a revocation.
        """
        caps = self._dirs.get(dir_ino)
        if caps is None:
            caps = self._dirs[dir_ino] = DirCaps(dir_ino)
        if caps.state is CapState.UNHELD:
            caps.state = CapState.EXCLUSIVE
            caps.holder = client_id
            self.grants += 1
            return _WRITE_CACHED
        if caps.state is CapState.EXCLUSIVE:
            if caps.holder == client_id:
                return _WRITE_CACHED
            # Second writer: revoke the holder's cap; dir goes shared.
            caps.state = CapState.SHARED
            caps.holder = None
            self.revocations += 1
            return _WRITE_REVOKED
        # SHARED: everyone pays the extra lookup.
        return _WRITE_SHARED

    # -- migration ---------------------------------------------------------
    def export_dirs(self, dir_inos) -> Dict[int, DirCaps]:
        """Detach the capability records for ``dir_inos`` (for a subtree
        handoff).  Directories with no record are skipped — UNHELD state
        is implicit on both sides."""
        out: Dict[int, DirCaps] = {}
        for ino in sorted(set(dir_inos)):
            caps = self._dirs.pop(ino, None)
            if caps is not None:
                out[ino] = caps
        return out

    def import_dirs(self, mapping: Dict[int, DirCaps]) -> int:
        """Install capability records detached by :meth:`export_dirs`.

        Raises if any directory already has a record here: a capability
        must never be granted by two ranks at once, so a collision means
        the handoff protocol broke.
        """
        for ino in sorted(mapping):
            if ino in self._dirs:
                raise ValueError(
                    f"capability for dir inode {ino} already granted on "
                    "this rank; refusing a double grant"
                )
        for ino in sorted(mapping):
            self._dirs[ino] = mapping[ino]
        return len(mapping)

    @property
    def tracked_dirs(self) -> int:
        return len(self._dirs)
