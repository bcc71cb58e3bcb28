"""Client-side capability mirror.

The MDS is authoritative for capabilities (:mod:`repro.mds.caps`); the
client keeps a mirror so it knows whether its next create in a directory
can skip the existence ``lookup``.  The mirror is updated from every
reply (``Response.cached`` / ``Response.revoked``), which matches how
CephFS clients learn of revocations piggybacked on MDS messages.
"""

from __future__ import annotations

from typing import Set

__all__ = ["ClientCache"]


class ClientCache:
    """Per-client record of directories it may cache."""

    def __init__(self, client_id: int):
        self.client_id = client_id
        self._cached_dirs: Set[str] = set()
        self.revocations_seen = 0
        self.local_lookups = 0
        self.remote_lookups = 0

    def can_cache(self, dir_path: str) -> bool:
        return dir_path in self._cached_dirs

    def note_reply(self, dir_path: str, cached: bool, revoked: bool) -> None:
        """Update the mirror from an MDS reply."""
        if cached:
            self._cached_dirs.add(dir_path)
        else:
            self._cached_dirs.discard(dir_path)
        if revoked:
            self.revocations_seen += 1

    def note_lookup(self, local: bool) -> None:
        if local:
            self.local_lookups += 1
        else:
            self.remote_lookups += 1
