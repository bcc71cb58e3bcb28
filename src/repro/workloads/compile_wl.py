"""The kernel-compile phase workload (Figure 2).

The paper traces a Linux-kernel compile in a CephFS mount and shows
that the *untar* phase — "characterized by many creates" — drives the
highest combined CPU/network/disk utilization on the metadata server,
"because of the number of RPCs needed for consistency and durability".

The synthetic equivalent preserves that structure:

* ``untar``     — a flash crowd of creates: several parallel extraction
  streams with no think time (tar feeds the file system as fast as the
  metadata path allows).  Every create journals ~2.5 KB to the object
  store, so disk and network load ride along with MDS CPU.
* ``configure`` — a single probe stream: existence checks with think
  time between them (configure scripts compute between stats), few
  creates.
* ``make``      — a few parallel compile streams, each alternating
  header stats and object-file creates with compilation think time.

Each phase reports MDS CPU utilization, metadata network traffic and
object-store disk utilization — the quantities Figure 2 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from repro.cluster import Cluster
from repro.sim.engine import Event, Timeout

__all__ = ["CompilePhase", "CompileResult", "run_compile"]

#: Think time between configure probes (script execution, seconds).
CONFIGURE_THINK_S = 20e-3
#: Think time per compiled object (compilation itself, seconds).
MAKE_THINK_S = 30e-3
#: Parallel streams per phase.
UNTAR_STREAMS = 8
MAKE_STREAMS = 4


@dataclass
class CompilePhase:
    """Utilization measurements for one compile phase."""

    name: str
    ops: int
    duration_s: float
    mds_cpu_util: float
    net_bytes: int
    disk_util: float


@dataclass
class CompileResult:
    """Per-phase measurements for one simulated compile."""

    phases: List[CompilePhase] = field(default_factory=list)

    def phase(self, name: str) -> CompilePhase:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)


def _disk_busy(cluster: Cluster) -> float:
    return sum(o.disk.busy_seconds() for o in cluster.objstore.osds)


def run_compile(
    cluster: Cluster,
    scale: int = 10_000,
    dirs: int = 20,
    batch: int = 100,
) -> Generator[Event, None, CompileResult]:
    """Run the three compile phases back-to-back (process body).

    ``scale`` is the number of source files: untar creates them all in
    parallel streams, configure probes ~10% of them, make compiles ~70%
    of them into object files.
    """
    engine = cluster.engine
    result = CompileResult()

    def measure(name: str, ops: int, t0: float, net0: int, disk0: float) -> None:
        t1 = engine.now
        n_disks = len(cluster.objstore.osds)
        window = max(t1 - t0, 1e-9)
        result.phases.append(
            CompilePhase(
                name=name,
                ops=ops,
                duration_s=t1 - t0,
                mds_cpu_util=cluster.mds.cpu_utilization(t0, t1),
                net_bytes=cluster.network.total_bytes - net0,
                disk_util=(_disk_busy(cluster) - disk0) / (window * n_disks),
            )
        )

    # -- untar: parallel flash crowd of creates --------------------------
    t0, net0, disk0 = engine.now, cluster.network.total_bytes, _disk_busy(cluster)
    per_stream = max(1, scale // UNTAR_STREAMS)

    def untar_stream(idx: int):
        client = cluster.new_client()
        start_dir = idx * (dirs // UNTAR_STREAMS)
        span = max(1, dirs // UNTAR_STREAMS)
        per_dir = max(1, per_stream // span)
        for d in range(span):
            resp = yield engine.process(
                client.create_many(
                    f"/src/dir{start_dir + d}", per_dir, batch=batch
                )
            )
            if not resp.ok:
                raise RuntimeError(resp.error)

    yield engine.all_of(
        [engine.process(untar_stream(i), name=f"untar{i}")
         for i in range(UNTAR_STREAMS)]
    )
    yield engine.process(cluster.mds.journal.flush())
    measure("untar", per_stream * UNTAR_STREAMS, t0, net0, disk0)

    # -- configure: paced existence probes --------------------------------
    t0, net0, disk0 = engine.now, cluster.network.total_bytes, _disk_busy(cluster)
    probe_client = cluster.new_client()
    probes = max(1, scale // 10 // batch)
    ops = 0
    for i in range(probes):
        yield Timeout(engine, CONFIGURE_THINK_S)
        yield engine.process(
            probe_client.lookup(f"/src/dir{i % dirs}")
        )
        ops += 1
    yield engine.process(probe_client.create_many("/src", 5, batch=5))
    ops += 5
    measure("configure", ops, t0, net0, disk0)

    # -- make: parallel compiles (stat header, create object, think) ------
    t0, net0, disk0 = engine.now, cluster.network.total_bytes, _disk_busy(cluster)
    objects = int(scale * 0.7)
    per_make = max(1, objects // MAKE_STREAMS)
    make_ops = [0]

    def make_stream(idx: int):
        client = cluster.new_client()
        done = 0
        while done < per_make:
            take = min(batch, per_make - done)
            yield Timeout(engine, MAKE_THINK_S)
            yield engine.process(
                client.lookup(f"/src/dir{(idx + done) % dirs}")
            )
            resp = yield engine.process(
                client.create_many(f"/obj/dir{idx}", take, batch=batch)
            )
            if not resp.ok:
                raise RuntimeError(resp.error)
            done += take
            make_ops[0] += take + 1

    yield engine.all_of(
        [engine.process(make_stream(i), name=f"make{i}")
         for i in range(MAKE_STREAMS)]
    )
    yield engine.process(cluster.mds.journal.flush())
    measure("make", make_ops[0], t0, net0, disk0)
    return result
