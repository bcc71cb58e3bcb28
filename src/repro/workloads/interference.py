"""Interference workloads (Figures 3b, 3c, 6b).

"Clients create 100K files in their own directories while another
client interferes by creating 1000 files in each directory."  The
interfering client revokes the owners' directory capabilities, forcing
every later create to pay an extra remote ``lookup``.

Under ``interfere=block`` the interferer's requests bounce with -EBUSY
(cheap rejects), so the owners keep their capabilities — Cudele's
isolation knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.cluster import Cluster
from repro.core.policy import SubtreePolicy
from repro.sim.engine import Event, Timeout
from repro.sim.rng import RngStream

__all__ = ["InterferenceResult", "run_interference"]


@dataclass
class InterferenceResult:
    """Per-run measurements for one interference scenario."""

    clients: int
    ops_per_client: int
    mode: str  # "none" | "allow" | "block"
    client_times: List[float] = field(default_factory=list)
    interferer_time: float = 0.0
    interferer_errors: int = 0
    revocations: int = 0
    lookups: int = 0
    rejects: int = 0
    #: (time, cumulative count) samples for Figure 3c.
    lookup_samples: List[tuple] = field(default_factory=list)
    create_samples: List[tuple] = field(default_factory=list)

    @property
    def slowest_client_time(self) -> float:
        return max(self.client_times)


def run_interference(
    cluster: Cluster,
    clients: int,
    ops_per_client: int,
    mode: str = "allow",
    interfere_ops: int = 1000,
    interferer_start_frac: float = 0.165,
    batch: int = 100,
    sample_interval_s: Optional[float] = None,
) -> Generator[Event, None, InterferenceResult]:
    """Run the interference scenario (process body).

    ``mode``: ``none`` (no interferer), ``allow`` (default file-system
    behaviour) or ``block`` (Cudele returns -EBUSY to the interferer).
    ``interferer_start_frac`` positions the interferer's start relative
    to the expected solo run time — the paper launches it "at 30
    seconds" of a ~182 s run.
    """
    if mode not in ("none", "allow", "block"):
        raise ValueError(f"unknown interference mode {mode!r}")
    result = InterferenceResult(
        clients=clients, ops_per_client=ops_per_client, mode=mode
    )
    engine = cluster.engine

    # Each owner's directory is a policy-carrying subtree; under block
    # the owner is recorded so the MDS can reject everyone else.
    owners = [cluster.new_client() for _ in range(clients)]
    if mode == "block":
        for i, owner in enumerate(owners):
            policy = SubtreePolicy(interfere="block",
                                   owner_client=owner.client_id)
            yield from cluster.mon.set_subtree(f"/dirs/dir{i}", policy)

    start = engine.now
    # Expected solo duration at the journal-on single-client rate.
    expected_solo = ops_per_client / 520.0
    interferer_start = expected_solo * interferer_start_frac

    def owner_worker(idx: int):
        t0 = engine.now
        resp = yield from owners[idx].create_many(
            f"/dirs/dir{idx}", ops_per_client, batch=batch
        )
        if not resp.ok:
            raise RuntimeError(resp.error)
        result.client_times.append(engine.now - t0)

    def interferer_worker():
        client = cluster.new_client()
        yield Timeout(engine, interferer_start)
        t0 = engine.now
        dirs = list(range(clients))
        RngStream(cluster.seed, "interferer").shuffle(dirs)
        for d in dirs:
            resp = yield from client.create_many(
                f"/dirs/dir{d}", interfere_ops, batch=batch
            )
            if not resp.ok:
                result.interferer_errors += 1
        result.interferer_time = engine.now - t0

    sampling = [True]

    def sampler():
        while sampling[0]:
            yield Timeout(engine, sample_interval_s)
            result.lookup_samples.append(
                (engine.now - start, cluster.mds.stats.counter("lookups").value)
            )
            result.create_samples.append(
                (engine.now - start, cluster.mds.stats.counter("creates").value)
            )

    procs = [
        engine.process(owner_worker(i), name=f"owner{i}") for i in range(clients)
    ]
    if mode != "none":
        engine.process(interferer_worker(), name="interferer")
    if sample_interval_s:
        engine.process(sampler(), name="sampler")
    yield engine.all_of(procs)
    sampling[0] = False

    result.revocations = cluster.mds.stats.counter("revocations").value
    result.lookups = cluster.mds.stats.counter("lookups").value
    result.rejects = cluster.mds.stats.counter("rejects").value
    return result
