"""Capabilities: the consistency machinery behind Figures 3b and 3c.

"To reduce the number of RPCs needed for consistency, clients can obtain
capabilities for reading and writing inodes, as well as caching reads
[and] buffering writes ... If a client has the directory inode cached it
can do metadata writes (e.g., create) with a single RPC.  If the client
is not caching the directory inode then it must do an extra RPC to
determine if the file exists." (paper Section II-B)

The tracker keeps a per-directory capability state:

* ``EXCLUSIVE`` — one client holds the read-caching/write-buffering cap
  and can resolve lookups locally: a create costs **1 RPC**.
* ``SHARED`` — a second client touched the directory; the cap was
  revoked, every writer must ``lookup()`` remotely first: **2 RPCs**
  per create, plus revocation work on the MDS.

Once a directory has gone ``SHARED`` it stays shared while both clients
keep writing (CephFS re-issues caps only after quiescence; the paper's
interference runs never quiesce, matching the sticky behaviour here —
:meth:`CapTracker.quiesce` models the idle re-grant for completeness).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

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
    writers: Set[int] = field(default_factory=set)


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
    state: CapState


# The three outcomes a write can have, shared: an outcome is immutable,
# so a write need not build one.
_WRITE_CACHED = AccessOutcome(rpcs=1, revoked=False, state=CapState.EXCLUSIVE)
_WRITE_REVOKED = AccessOutcome(rpcs=2, revoked=True, state=CapState.SHARED)
_WRITE_SHARED = AccessOutcome(rpcs=2, revoked=False, state=CapState.SHARED)


class CapTracker:
    """Per-MDS capability state machine."""

    def __init__(self):
        self._dirs: Dict[int, DirCaps] = {}
        self.revocations = 0
        self.grants = 0

    def _caps(self, dir_ino: int) -> DirCaps:
        caps = self._dirs.get(dir_ino)
        if caps is None:
            caps = DirCaps(dir_ino)
            self._dirs[dir_ino] = caps
        return caps

    def state_of(self, dir_ino: int) -> CapState:
        caps = self._dirs.get(dir_ino)
        return caps.state if caps else CapState.UNHELD

    def holder_of(self, dir_ino: int) -> Optional[int]:
        caps = self._dirs.get(dir_ino)
        return caps.holder if caps else None

    def can_cache(self, dir_ino: int, client_id: int) -> bool:
        """Whether ``client_id`` may resolve lookups in this dir locally."""
        caps = self._dirs.get(dir_ino)
        return (
            caps is not None
            and caps.state is CapState.EXCLUSIVE
            and caps.holder == client_id
        )

    def write_access(self, dir_ino: int, client_id: int) -> AccessOutcome:
        """Record a write (create/unlink) by ``client_id`` in ``dir_ino``.

        Returns the RPC count the operation costs and whether it caused
        a revocation.
        """
        caps = self._caps(dir_ino)
        caps.writers.add(client_id)
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

    def read_access(self, dir_ino: int, client_id: int) -> AccessOutcome:
        """A read (stat/ls).  Reads never revoke; they cost 1 RPC unless
        the client can serve from its own cache (exclusive holder)."""
        if self.can_cache(dir_ino, client_id):
            return AccessOutcome(rpcs=0, revoked=False, state=CapState.EXCLUSIVE)
        return AccessOutcome(rpcs=1, revoked=False, state=self.state_of(dir_ino))

    def release(self, dir_ino: int, client_id: int) -> None:
        """Client drops its interest (file closed / unmount)."""
        caps = self._dirs.get(dir_ino)
        if caps is None:
            return
        caps.writers.discard(client_id)
        if caps.holder == client_id:
            caps.holder = None
            caps.state = CapState.UNHELD if not caps.writers else CapState.SHARED

    def quiesce(self, dir_ino: int) -> None:
        """Idle re-grant: writers have gone away; if one remains it may
        regain the exclusive cap."""
        caps = self._dirs.get(dir_ino)
        if caps is None:
            return
        if len(caps.writers) == 1:
            caps.holder = next(iter(caps.writers))
            caps.state = CapState.EXCLUSIVE
            self.grants += 1
        elif not caps.writers:
            caps.holder = None
            caps.state = CapState.UNHELD

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
