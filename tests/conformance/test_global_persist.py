"""Global persists are what the MDS journal reads back.

A differential stated without the recorder's logic: once every rank has
flushed its journal, the history's global ``persisted`` records for an
MDS must be, in order, exactly the mutations a verifying scan of that
rank's striped journal returns — nothing claimed that replay would not
restore, nothing restored that was never claimed.
"""

from typing import List

import pytest

from repro.cluster import Cluster
from repro.conformance.driver import (
    SEGMENT_EVENTS,
    SUBTREE,
    _crash_recover,
    _run_burst,
)
from repro.conformance.recorder import HistoryRecorder
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.journal.events import EventType
from repro.mds.migrate import migrate_subtree
from repro.mds.server import MDSConfig
from repro.sim.rng import RngStream

pytestmark = pytest.mark.conformance


def _strong_global_cell(migrate: bool):
    """The ("strong", "global", 0) cell's workload as ``run_cell``
    drives it, with a live handoff to rank 1 between the bursts when
    ``migrate``."""
    cluster = Cluster(
        seed=0, mds_config=MDSConfig(segment_events=SEGMENT_EVENTS),
        num_mds=2 if migrate else 1,
    )
    if migrate:
        cluster.assign_subtree_mds(SUBTREE, 0)
    recorder = HistoryRecorder.attach(cluster)
    boot = cluster.new_client()
    cluster.run(boot.mkdir(SUBTREE))
    ns = cluster.run(Cudele(cluster).decouple(
        SUBTREE,
        SubtreePolicy.from_semantics("strong", "global", allocated_inodes=2048),
    ))
    rng = RngStream(0, "conformance/strong/global")
    tracked: List[str] = []
    _run_burst(cluster, boot, rng, tracked, 0)
    _crash_recover(cluster, boot.name, mode="local")
    if migrate:
        assert cluster.run(migrate_subtree(cluster, SUBTREE, 1)).status == "done"
    _run_burst(cluster, boot, rng, tracked, 1)
    cluster.run(ns.finalize())
    _crash_recover(cluster, cluster.mds_for(SUBTREE).name, mode="local")
    return cluster, recorder


def _stalled_crash():
    """One event per segment and one window slot; four RPC clients make
    six three-name creates each in ``/d`` and the MDS crashes 8 ms in,
    while ``/d/c2-0-1`` waits for the slot.  After recovery one more
    client creates three names."""
    cluster = Cluster(
        seed=0, mds_config=MDSConfig(segment_events=1, dispatch_size=1)
    )
    recorder = HistoryRecorder.attach(cluster)
    clients = [cluster.new_client() for _ in range(4)]
    cluster.run(clients[0].mkdir("/d"))

    def creates(client):
        for j in range(6):
            yield from client.create_many(
                "/d", [f"c{client.client_id}-{j}-{n}" for n in range(3)]
            )

    for client in clients:
        cluster.engine.process(creates(client))
    cluster.run(until=cluster.now + 0.008)
    mds = cluster.mds
    mds.crash()
    cluster.run()
    cluster.run(mds.recover())
    late = cluster.new_client()
    cluster.run(late.create_many("/d", ["late-0", "late-1", "late-2"]))
    return cluster, recorder


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _strong_global_cell(False), id="strong-global"),
    pytest.param(lambda: _strong_global_cell(True), id="strong-global-migrate"),
    pytest.param(_stalled_crash, id="window-stall-crash"),
])
def test_global_persists_are_the_mutations_the_journal_reads_back(build):
    cluster, recorder = build()
    for mds in cluster.mds_list:
        cluster.run(mds.journal.flush())
    persisted = 0
    for mds in cluster.mds_list:
        scan = cluster.run(mds.journal.read_scan())
        assert scan.damage is None
        read_back = [
            (i, EventType(ev.op).name.lower(), ev.path, ev.ino or None,
             ev.client_id)
            for i, ev in enumerate(
                (ev for ev in scan.events if ev.is_mutation), 1
            )
        ]
        claimed = [
            (e.seq, e.op, e.path, e.ino, e.client)
            for e in recorder.history.events
            if e.kind == "persisted" and e.scope == "global"
            and e.actor == mds.name
        ]
        assert claimed == read_back, mds.name
        persisted += len(claimed)
    assert persisted
