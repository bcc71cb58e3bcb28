"""Versioned subtree-policy map with cluster distribution.

The monitor is deliberately policy-agnostic: it versions and distributes
opaque policy objects keyed by subtree path.  Interpretation belongs to
:mod:`repro.core` (Cudele) and the daemons.  Nearest-ancestor resolution
implements the paper's inheritance rule: "subtrees without policies
inherit the consistency/durability semantics of the parent".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.sim.engine import Engine, Event
from repro.sim.network import Network

__all__ = ["Monitor", "PolicyMapEntry"]

#: Approximate serialized size of one policy-map update on the wire.
POLICY_UPDATE_BYTES = 4096


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"subtree paths must be absolute: {path!r}")
    norm = "/" + "/".join(p for p in path.split("/") if p)
    return norm


@dataclass(frozen=True)
class PolicyMapEntry:
    """One versioned policy assignment."""

    version: int
    path: str
    policy: Any


class Monitor:
    """Manages and distributes the cluster's subtree policy map."""

    def __init__(self, engine: Engine, network: Network, name: str = "mon0"):
        self.engine = engine
        self.network = network
        self.name = name
        self._policies: Dict[str, Any] = {}
        self.version = 0
        self.history: List[PolicyMapEntry] = []
        #: Daemon endpoint names subscribed to map updates.
        self.subscribers: List[str] = []
        #: MDS authority map: subtree path -> authoritative MDS rank.
        #: Nearest-ancestor resolution, rank 0 by default — the monitor
        #: (not any MDS) owns this map, so authority survives MDS
        #: crashes and there is always exactly one authority per path.
        self._authority: Dict[str, int] = {}
        #: Bumped on every authority change; stale clients and ranks
        #: compare epochs to detect an outdated map.
        self.mds_epoch = 0

    # -- membership -----------------------------------------------------
    def subscribe(self, daemon_name: str) -> None:
        if daemon_name not in self.subscribers:
            self.subscribers.append(daemon_name)

    def unsubscribe(self, daemon_name: str) -> None:
        if daemon_name in self.subscribers:
            self.subscribers.remove(daemon_name)

    # -- policy map updates (process bodies: distribution costs wire time)
    def set_subtree(
        self, path: str, policy: Any, src: str = "client"
    ) -> Generator[Event, None, int]:
        """Assign ``policy`` to ``path``; distributes to all daemons.

        Returns the new map version.
        """
        norm = _normalize(path)
        # Client -> monitor submission.
        yield from self.network.send(src, self.name, POLICY_UPDATE_BYTES)
        self.version += 1
        self._policies[norm] = policy
        self.history.append(PolicyMapEntry(self.version, norm, policy))
        yield from self._distribute()
        return self.version

    def clear_subtree(
        self, path: str, src: str = "client"
    ) -> Generator[Event, None, Optional[int]]:
        """Remove the policy on ``path`` (subtree reverts to inherited).

        Returns the **new** map version when an assignment was actually
        removed.  Clearing a path with no exact assignment is an
        explicit no-op: the submission still pays the client->monitor
        wire cost (the monitor must see the request to reject it), but
        no version is minted, nothing is distributed, and the call
        returns ``None`` — callers can tell "cleared" from "there was
        nothing to clear" instead of receiving the stale old version.
        """
        norm = _normalize(path)
        yield from self.network.send(src, self.name, POLICY_UPDATE_BYTES)
        if norm not in self._policies:
            return None
        self.version += 1
        del self._policies[norm]
        self.history.append(PolicyMapEntry(self.version, norm, None))
        yield from self._distribute()
        return self.version

    def _distribute(self) -> Generator[Event, None, None]:
        sends = [
            self.engine.process(
                self.network.send(self.name, daemon, POLICY_UPDATE_BYTES),
                name=f"policy-update:{daemon}",
            )
            for daemon in self.subscribers
        ]
        if sends:
            yield self.engine.all_of(sends)

    # -- MDS authority map -----------------------------------------------
    def assign_authority(self, path: str, rank: int) -> int:
        """Pin ``path``'s subtree to MDS ``rank`` (bootstrap-time static
        partitioning; no wire cost).  Returns the new MDS-map epoch."""
        norm = _normalize(path)
        self.mds_epoch += 1
        self._authority[norm] = rank
        return self.mds_epoch

    def authority_of(self, path: str) -> int:
        """The MDS rank authoritative for ``path`` (nearest assigned
        ancestor; rank 0 when nothing is assigned)."""
        if not self._authority:
            return 0
        norm = _normalize(path)
        probe = norm
        while True:
            if probe in self._authority:
                return self._authority[probe]
            if probe == "/":
                return 0
            probe = probe.rsplit("/", 1)[0] or "/"

    def set_authority(
        self, path: str, rank: int, src: str = "mds"
    ) -> Generator[Event, None, int]:
        """Retarget ``path``'s authority to ``rank`` (process body).

        This is the migration protocol's commit point: the submission
        and the fan-out to subscribers pay wire time like any policy-map
        update.  Returns the new MDS-map epoch.
        """
        norm = _normalize(path)
        yield from self.network.send(src, self.name, POLICY_UPDATE_BYTES)
        self.mds_epoch += 1
        self._authority[norm] = rank
        yield from self._distribute()
        return self.mds_epoch

    @property
    def authority_paths(self) -> List[str]:
        return sorted(self._authority)

    # -- resolution ------------------------------------------------------
    def resolve(self, path: str) -> Optional[Any]:
        """Policy governing ``path``: nearest ancestor's assignment."""
        entry = self.resolve_entry(path)
        return entry[1] if entry else None

    def resolve_entry(self, path: str) -> Optional[Tuple[str, Any]]:
        """Like :meth:`resolve` but also returns the subtree root path."""
        norm = _normalize(path)
        probe = norm
        while True:
            if probe in self._policies:
                return probe, self._policies[probe]
            if probe == "/":
                return None
            probe = probe.rsplit("/", 1)[0] or "/"

    def authority_entry(self, path: str) -> Optional[Tuple[str, int]]:
        """Like :meth:`authority_of` but also returns the assigned
        subtree root; None when no assignment governs ``path``."""
        probe = _normalize(path)
        while True:
            if probe in self._authority:
                return probe, self._authority[probe]
            if probe == "/":
                return None
            probe = probe.rsplit("/", 1)[0] or "/"

    def subtree_entry(self, path: str) -> Optional[Tuple[str, Any]]:
        """The governing subtree entry for ``path``: the nearest
        decoupled policy if one applies, else the nearest MDS authority
        assignment.  The hotspot detector and observability attribute
        per-subtree op counts with this, so authority-pinned (but not
        decoupled) subtrees are visible to the balancer and the
        migration drill."""
        return self.resolve_entry(path) or self.authority_entry(path)

    def exact(self, path: str) -> Optional[Any]:
        return self._policies.get(_normalize(path))

    @property
    def subtree_paths(self) -> List[str]:
        return sorted(self._policies)
