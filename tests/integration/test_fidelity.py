"""Fidelity of the simulator's host-side optimizations.

Two mechanisms keep paper-scale runs tractable on the host: request
*batching* (many ops per simulator event) and *counted* (non-
materialized) operation mode.  Neither may change simulated results —
these tests pin that invariant.
"""

import pytest

from repro.cluster import Cluster
from repro.mds.server import MDSConfig
from repro.workloads.createheavy import parallel_creates_rpc


def rpc_time(batch, jitter=0.0, n_ops=1200, clients=2):
    cluster = Cluster(
        mds_config=MDSConfig(materialize=False, service_jitter_cv=jitter)
    )
    res = cluster.run(
        parallel_creates_rpc(cluster, clients, n_ops, batch=batch)
    )
    return res.job_time


def test_batch_size_does_not_change_simulated_time():
    """batch=1 (every op its own request) vs batch=100 within 2%."""
    t_fine = rpc_time(batch=1)
    t_batched = rpc_time(batch=100)
    assert t_batched == pytest.approx(t_fine, rel=0.02)


def test_batch_size_sweep_stable():
    """Up to the default batch (100) fidelity stays within 2%; coarser
    batches trade queueing granularity for host speed."""
    times = [rpc_time(batch=b) for b in (1, 10, 50, 100)]
    assert max(times) / min(times) < 1.02


def test_counted_mode_matches_materialized_time():
    """Non-materialized runs charge identical simulated costs."""
    ops = 400

    def run(materialize):
        cluster = Cluster(
            mds_config=MDSConfig(
                materialize=materialize, service_jitter_cv=0.0
            )
        )
        client = cluster.new_client()
        if materialize:
            names = [f"f{i}" for i in range(ops)]
            cluster.run(client.create_many("/", names, batch=50))
        else:
            cluster.run(client.create_many("/dir", ops, batch=50))
        return cluster.now

    assert run(False) == pytest.approx(run(True), rel=0.01)


def test_counted_merge_matches_materialized_merge_time():
    from repro.core.mechanisms import merge_journal

    n = 300

    def run(materialized):
        cluster = Cluster(
            mds_config=MDSConfig(
                materialize=materialized, service_jitter_cv=0.0
            )
        )
        if materialized:
            cluster.mds.mdstore.mkdir("/sub")
            from repro.journal.events import EventType, JournalEvent

            events = [
                JournalEvent(EventType.CREATE, f"/sub/f{i}", ino=5_000_000 + i)
                for i in range(n)
            ]
            t0 = cluster.now
            cluster.run(merge_journal(cluster.mds, "/sub", 5, events=events))
        else:
            t0 = cluster.now
            cluster.run(merge_journal(cluster.mds, "/sub", 5, count=n))
        return cluster.now - t0

    assert run(False) == pytest.approx(run(True), rel=0.01)


def test_seeded_runs_are_deterministic():
    """Same seed, same configuration -> bit-identical simulated time."""
    assert rpc_time(batch=50, jitter=0.04) == rpc_time(batch=50, jitter=0.04)


def test_different_seeds_differ_with_jitter():
    def run(seed):
        cluster = Cluster(
            mds_config=MDSConfig(materialize=False, service_jitter_cv=0.05),
            seed=seed,
        )
        res = cluster.run(parallel_creates_rpc(cluster, 2, 1000))
        return res.job_time

    assert run(1) != run(2)
