"""Cluster assembly: one call builds the full simulated testbed.

Mirrors the paper's evaluation deployment: "1 monitor daemon, 3 object
storage daemons, 1 metadata server daemon, and up to 20 clients" on
10 GbE with local SSDs (Section V).

The paper scopes its evaluation to one MDS and notes that "load
balancing across a cluster of metadata servers with partitioning and
replication can be explored with something like Mantle".  As the
substrate for that exploration, :class:`Cluster` optionally hosts
several MDS daemons with static subtree partitioning: the monitor's MDS
map assigns subtrees to ranks and clients route per path
(:meth:`assign_subtree_mds`, :meth:`mds_for`).
"""

from __future__ import annotations

from typing import List, Optional

from repro import calibration as cal
from repro.client.client import Client
from repro.client.decoupled import DecoupledClient
from repro.mds.inotable import INO_SPACE
from repro.mds.server import MDSConfig, MetadataServer
from repro.mon.monitor import Monitor
from repro.rados.cluster import ObjectStore
from repro.sim.engine import Engine
from repro.sim.network import Network

__all__ = ["Cluster"]


class Cluster:
    """Engine + network + object store + MDS rank(s) + monitor."""

    def __init__(
        self,
        num_osds: int = 3,
        replication: int = 3,
        mds_config: Optional[MDSConfig] = None,
        num_mds: int = 1,
        seed: int = 0,
    ):
        if num_mds < 1:
            raise ValueError("need at least one MDS")
        self.seed = seed
        self.engine = Engine()
        self.network = Network(
            self.engine,
            latency_s=cal.NET_LATENCY_S,
            bandwidth_bps=cal.NET_BANDWIDTH_BPS,
        )
        self.objstore = ObjectStore(
            self.engine,
            self.network,
            num_osds=num_osds,
            replication=min(replication, num_osds),
            disk_bandwidth_bps=cal.DISK_BANDWIDTH_BPS,
            disk_seek_s=cal.DISK_SEEK_S,
        )
        cfg = mds_config or MDSConfig()
        cfg.seed = seed
        self.mds_list: List[MetadataServer] = [
            MetadataServer(
                self.engine, self.objstore, self.network,
                self._rank_config(cfg, rank), name=f"mds{rank}",
            )
            for rank in range(num_mds)
        ]
        self.mon = Monitor(self.engine, self.network)
        # Daemons subscribe to policy-map updates; every MDS resolves
        # subtree policies through the monitor's map.  Multi-rank
        # clusters additionally wire the monitor's MDS authority map so
        # a rank can redirect requests for subtrees it no longer owns
        # (subtree migration); the single-MDS request path is untouched.
        for rank, mds in enumerate(self.mds_list):
            self.mon.subscribe(mds.name)
            mds.policy_resolver = self.mon.resolve
            mds.rank = rank
            if num_mds > 1:
                mds.authority_resolver = self.mon.authority_of
        for osd in self.objstore.osds:
            self.mon.subscribe(osd.name)
        self._clients: List[Client] = []
        self._dclients: List[DecoupledClient] = []
        #: The observer tap (:mod:`repro.obs.tap`) every daemon of this
        #: cluster reports through; None — and no tap allocated — while
        #: nothing observes.  Clients created later inherit it.
        self.tap = None
        self._observers: list = []

    @staticmethod
    def _rank_config(cfg: MDSConfig, rank: int) -> MDSConfig:
        if rank == 0:
            return cfg
        clone = MDSConfig(**vars(cfg))
        clone.seed = cfg.seed + 7919 * rank  # independent jitter streams
        # Disjoint per-rank inode spaces: a migrated InoTable range can
        # never overlap the destination's own allocations.
        clone.ino_base = (1 << 20) + rank * INO_SPACE
        return clone

    # -- MDS rank access -------------------------------------------------
    @property
    def mds(self) -> MetadataServer:
        """Rank 0 (the only MDS in the paper's deployment)."""
        return self.mds_list[0]

    @property
    def num_mds(self) -> int:
        return len(self.mds_list)

    def assign_subtree_mds(self, path: str, rank: int) -> None:
        """Pin a subtree to an MDS rank (static Mantle-style partition).

        The assignment lives in the monitor's MDS authority map, so it
        survives MDS crashes and can be retargeted at runtime by a live
        subtree migration (:func:`repro.mds.migrate.migrate_subtree`).
        """
        if not 0 <= rank < len(self.mds_list):
            raise ValueError(f"no MDS rank {rank}")
        self.mon.assign_authority(path, rank)

    def mds_for(self, path: str) -> MetadataServer:
        """The MDS authoritative for ``path`` (nearest assigned ancestor)."""
        return self.mds_list[self.mon.authority_of(path)]

    # -- client factories ---------------------------------------------------
    def new_client(self, retry=None) -> Client:
        client = Client(
            self.engine,
            client_id=len(self._clients) + 1, mds=self.mds,
            network=self.network,
            router=self.mds_for if len(self.mds_list) > 1 else None,
            retry=retry,
        )
        client.tap = self.tap
        self._clients.append(client)
        return client

    def new_decoupled_client(
        self, persist_each: bool = False, persist_backend: str = "disk"
    ) -> DecoupledClient:
        client = DecoupledClient(
            self.engine,
            client_id=1000 + len(self._dclients) + 1,
            persist_each=persist_each,
            persist_backend=persist_backend,
        )
        client.tap = self.tap
        self._dclients.append(client)
        return client

    @property
    def clients(self) -> List[Client]:
        return list(self._clients)

    # -- observers ----------------------------------------------------------
    def attach_observer(self, subscriber) -> None:
        """Subscribe ``subscriber`` (see :mod:`repro.obs.tap`) to every
        daemon of this cluster."""
        if subscriber in self._observers:
            raise RuntimeError("observer is already attached")
        self._set_observers(self._observers + [subscriber])

    def detach_observer(self, subscriber) -> None:
        self._set_observers(
            [sub for sub in self._observers if sub is not subscriber]
        )

    def _set_observers(self, observers: list) -> None:
        # Observation is opt-in: nothing of repro.obs loads before this.
        from repro.obs.tap import Tap

        self._observers = observers
        self.tap = tap = Tap(observers) if observers else None
        for mds in self.mds_list:
            mds.tap = mds.journal.tap = tap
        for daemon in (*self.objstore.osds, *self._clients, *self._dclients):
            daemon.tap = tap

    # -- convenience ----------------------------------------------------------
    def run(self, gen=None, until: Optional[float] = None):
        """Run the simulation; with ``gen``, drive that process body and
        return its value (raising its failure).

        A body the schedule drains under raises ``SimulationError``;
        with ``until``, an unfinished body returns None and carries on
        at the next ``run``."""
        if gen is None:
            self.engine.run(until=until)
            return None
        return self.engine._drive(gen, until)

    @property
    def now(self) -> float:
        return self.engine.now
