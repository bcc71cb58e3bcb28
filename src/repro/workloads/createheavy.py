"""Create-heavy workloads: N clients, private directories.

"We scale the number of parallel clients each doing 100K operations
because 100K is the maximum recommended size of a directory in CephFS"
(paper §V).  Clients run in non-materialized (counted) mode so that
paper-scale runs — 20 x 100K creates — stay tractable on the simulator
host; the simulated per-op costs are identical to materialized runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from repro.cluster import Cluster
from repro.core.mechanisms import merge_journal
from repro.sim.engine import Event

__all__ = ["CreateHeavyResult", "parallel_creates_rpc", "parallel_creates_decoupled"]


@dataclass
class CreateHeavyResult:
    """Timing of one parallel-create job."""

    clients: int
    ops_per_client: int
    client_times: List[float] = field(default_factory=list)
    create_time: float = 0.0  # parallel create phase (job view)
    merge_time: float = 0.0   # sequential merge phase, if any
    mds_rpcs: int = 0

    @property
    def job_time(self) -> float:
        return self.create_time + self.merge_time

    @property
    def total_ops(self) -> int:
        return self.clients * self.ops_per_client

    @property
    def job_throughput(self) -> float:
        """Total job ops/s (the metadata server's perspective, Fig 6a)."""
        return self.total_ops / self.job_time if self.job_time else 0.0

    @property
    def slowest_client_time(self) -> float:
        return max(self.client_times) if self.client_times else self.job_time


def parallel_creates_rpc(
    cluster: Cluster,
    clients: int,
    ops_per_client: int,
    batch: int = 100,
) -> Generator[Event, None, CreateHeavyResult]:
    """N RPC clients create in private directories (process body)."""
    result = CreateHeavyResult(clients=clients, ops_per_client=ops_per_client)
    start = cluster.engine.now

    def worker(idx: int):
        client = cluster.new_client()
        t0 = cluster.engine.now
        resp = yield from client.create_many(
            f"/dirs/dir{idx}", ops_per_client, batch=batch
        )
        if not resp.ok:
            raise RuntimeError(resp.error)
        result.client_times.append(cluster.engine.now - t0)

    procs = [
        cluster.engine.process(worker(i), name=f"creator{i}")
        for i in range(clients)
    ]
    yield cluster.engine.all_of(procs)
    result.create_time = cluster.engine.now - start
    result.mds_rpcs = cluster.mds.stats.counter("rpcs").value
    return result


def parallel_creates_decoupled(
    cluster: Cluster,
    clients: int,
    ops_per_client: int,
    persist_each: bool = True,
    merge: bool = False,
) -> Generator[Event, None, CreateHeavyResult]:
    """N decoupled clients create locally; optionally merge at the MDS.

    With ``merge``, all client journals land on the metadata server at
    the same time — the paper's pessimistic "decoupled: create+merge"
    scenario (Figure 6a).
    """
    result = CreateHeavyResult(clients=clients, ops_per_client=ops_per_client)
    start = cluster.engine.now
    dclients = [
        cluster.new_decoupled_client(persist_each=persist_each)
        for _ in range(clients)
    ]

    def worker(idx: int):
        t0 = cluster.engine.now
        yield from dclients[idx].create_many(f"/dirs/dir{idx}", ops_per_client)
        result.client_times.append(cluster.engine.now - t0)

    procs = [
        cluster.engine.process(worker(i), name=f"dcreator{i}")
        for i in range(clients)
    ]
    yield cluster.engine.all_of(procs)
    result.create_time = cluster.engine.now - start

    if merge:
        merge_start = cluster.engine.now
        merges = [
            cluster.engine.process(
                merge_journal(
                    cluster.mds,
                    f"/dirs/dir{i}",
                    dclients[i].client_id,
                    count=dclients[i].counted_ops or None,
                    events=(dclients[i].journal.events or None)
                    if not dclients[i].counted_ops
                    else None,
                ),
                name=f"merge{i}",
            )
            for i in range(clients)
        ]
        yield cluster.engine.all_of(merges)
        result.merge_time = cluster.engine.now - merge_start
    return result
