"""Pools, placement, and replicated object I/O.

Placement is a deterministic CRUSH-lite: an object's primary OSD is a
stable hash of ``(pool, name)`` and its replicas are the next OSDs in
ring order.  Primary-copy replication: the caller's network transfer
goes to the primary, then the primary and its replicas write in
parallel; the operation completes when all copies are durable (Ceph's
ack-on-all-replicas write semantics).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, List, Optional

from repro.sim.engine import Engine, Event
from repro.sim.network import Network
from repro.rados.osd import OSD

__all__ = ["Pool", "ObjectStore", "PlacementError"]


class PlacementError(RuntimeError):
    """Raised when placement cannot find enough live OSDs."""


class Pool:
    """A named pool with a replication factor."""

    def __init__(self, name: str, replication: int = 3):
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.name = name
        self.replication = replication

    def __repr__(self) -> str:
        return f"Pool({self.name!r}, rep={self.replication})"


class ObjectStore:
    """A cluster of OSDs with pool-based, replicated object I/O.

    All public I/O methods are *process bodies* (to be driven with
    ``yield from`` inside a simulated process).  They model:

    * network transfer from the caller endpoint to the primary OSD,
    * parallel disk writes on all replicas (write) or a primary disk
      read plus network transfer back (read).
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        num_osds: int = 3,
        replication: int = 3,
        disk_bandwidth_bps: float = 500e6,
        disk_seek_s: float = 100e-6,
    ):
        if num_osds < 1:
            raise ValueError("need at least one OSD")
        self.engine = engine
        self.network = network
        self.osds: List[OSD] = [
            OSD(
                engine,
                i,
                disk_bandwidth_bps=disk_bandwidth_bps,
                disk_seek_s=disk_seek_s,
            )
            for i in range(num_osds)
        ]
        self.pools: Dict[str, Pool] = {}
        self.create_pool("metadata", replication=min(replication, num_osds))
        self.create_pool("data", replication=min(replication, num_osds))

    # -- pool management ---------------------------------------------------
    def create_pool(self, name: str, replication: int = 3) -> Pool:
        if name in self.pools:
            raise ValueError(f"pool {name!r} already exists")
        if replication > len(self.osds):
            raise ValueError(
                f"replication {replication} exceeds OSD count {len(self.osds)}"
            )
        pool = Pool(name, replication)
        self.pools[name] = pool
        return pool

    def pool(self, name: str) -> Pool:
        try:
            return self.pools[name]
        except KeyError:
            raise KeyError(f"no such pool {name!r}") from None

    # -- placement ----------------------------------------------------------
    def placement(self, pool_name: str, obj_name: str) -> List[OSD]:
        """Primary-first list of live OSDs holding ``obj_name``.

        Like Ceph with ``min_size=1``, the pool serves degraded when
        fewer than ``replication`` OSDs are up; only a cluster with no
        live OSDs refuses I/O.
        """
        pool = self.pool(pool_name)
        digest = hashlib.md5(f"{pool_name}/{obj_name}".encode()).digest()
        start = int.from_bytes(digest[:4], "little") % len(self.osds)
        chosen: List[OSD] = []
        for k in range(len(self.osds)):
            osd = self.osds[(start + k) % len(self.osds)]
            if osd.up:
                chosen.append(osd)
            if len(chosen) == pool.replication:
                break
        if not chosen:
            raise PlacementError(f"no live OSDs for pool {pool_name!r}")
        return chosen

    def primary(self, pool_name: str, obj_name: str) -> OSD:
        return self.placement(pool_name, obj_name)[0]

    def _serving_replica(self, pool_name: str, obj_name: str) -> OSD:
        """The replica reads are served from: the primary, unless it lost
        (or never got) the object — a recovered OSD is live again before
        anything backfills it."""
        replicas = self.placement(pool_name, obj_name)
        for osd in replicas:
            if osd.has_object(obj_name):
                return osd
        return replicas[0]

    # -- replicated I/O (process bodies) -------------------------------------
    def put(
        self,
        pool_name: str,
        obj_name: str,
        data: bytes,
        src: str = "client",
        append: bool = False,
        charge_bytes: Optional[int] = None,
    ) -> Generator[Event, None, None]:
        """Write ``data`` to all replicas of ``obj_name``.

        ``charge_bytes`` overrides the simulated network/disk cost (see
        :meth:`repro.rados.osd.OSD.write_object`).
        """
        replicas = self.placement(pool_name, obj_name)
        cost = len(data) if charge_bytes is None else charge_bytes
        # Client -> primary network transfer.
        yield from self.network.send(src, replicas[0].name, cost)
        # Primary fans out to replicas; all disks write in parallel.
        yield from self.engine.gather(
            (
                osd.write_object(obj_name, data, append=append, charge_bytes=cost),
                f"put:{obj_name}@{osd.name}",
            )
            for osd in replicas
        )

    def append(
        self,
        pool_name: str,
        obj_name: str,
        data: bytes,
        src: str = "client",
        charge_bytes: Optional[int] = None,
    ) -> Generator[Event, None, None]:
        """Append ``data`` to all replicas (journal tail write)."""
        yield from self.put(
            pool_name, obj_name, data, src=src, append=True, charge_bytes=charge_bytes
        )

    def get(
        self,
        pool_name: str,
        obj_name: str,
        dst: str = "client",
        offset: int = 0,
        length: Optional[int] = None,
        charge_bytes: Optional[int] = None,
    ) -> Generator[Event, None, bytes]:
        """Read from the primary replica and ship bytes back to ``dst``.

        A primary that just recovered may not hold objects written while
        it was down; like Ceph after peering, the read is served by the
        first replica that has the object.
        """
        primary = self._serving_replica(pool_name, obj_name)
        data = yield from primary.read_object(
            obj_name, offset, length, charge_bytes=charge_bytes
        )
        yield from self.network.send(
            primary.name, dst, len(data) if charge_bytes is None else charge_bytes
        )
        return data

    def read_modify_write(
        self,
        pool_name: str,
        obj_name: str,
        new_data: bytes,
        src: str = "client",
        charge_bytes: Optional[int] = None,
    ) -> Generator[Event, None, None]:
        """Pull the whole object, then push it back rewritten.

        This is the access pattern of CephFS's journal tool when applying
        updates to the metadata store (Nonvolatile Apply): every journal
        event re-reads and re-writes the directory object and the root
        object, which is why the paper measures it at ~78x.
        """
        if self.exists(pool_name, obj_name):
            yield from self.get(
                pool_name, obj_name, dst=src, charge_bytes=charge_bytes
            )
        yield from self.put(
            pool_name, obj_name, new_data, src=src, charge_bytes=charge_bytes
        )

    def remove(self, pool_name: str, obj_name: str) -> None:
        for osd in self.placement(pool_name, obj_name):
            if osd.has_object(obj_name):
                osd.remove_object(obj_name)

    # -- inspection -----------------------------------------------------------
    def exists(self, pool_name: str, obj_name: str) -> bool:
        return any(o.has_object(obj_name) for o in self.placement(pool_name, obj_name))

    def stat(self, pool_name: str, obj_name: str) -> int:
        """Size in bytes of the serving copy."""
        primary = self._serving_replica(pool_name, obj_name)
        if not primary.has_object(obj_name):
            raise KeyError(f"no such object {obj_name!r} in pool {pool_name!r}")
        return len(primary.objects[obj_name])

    def peek(self, pool_name: str, obj_name: str) -> bytes:
        """Zero-cost read used by tests and recovery assertions."""
        primary = self._serving_replica(pool_name, obj_name)
        if not primary.has_object(obj_name):
            raise KeyError(f"no such object {obj_name!r} in pool {pool_name!r}")
        return primary.objects[obj_name].data

    def list_objects(self, pool_name: str) -> List[str]:
        self.pool(pool_name)
        names = set()
        for osd in self.osds:
            names.update(osd.objects.keys())
        # Filter to this pool by checking placement membership.
        return sorted(
            n for n in names
            if any(o.has_object(n) for o in self.placement(pool_name, n))
        )

    @property
    def aggregate_bandwidth_bps(self) -> float:
        return sum(o.disk.bandwidth_bps for o in self.osds if o.up)
