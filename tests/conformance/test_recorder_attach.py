"""Observers attach per cluster, in any order, any number per process.

The recorder and ``repro.obs`` both subscribe to the cluster's observer
tap; nothing they need lives in process-wide state, so attach order,
detach order and a second recorded cluster in the same interpreter
cannot change what either one sees.
"""

import pytest

from repro.cluster import Cluster
from repro.conformance.driver import (
    SEGMENT_EVENTS,
    SUBTREE,
    _crash_recover,
    _run_burst,
    run_cell,
)
from repro.conformance.recorder import HistoryRecorder
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.mds.server import MDSConfig
from repro.obs import Observability
from repro.sim.rng import RngStream

from tests.conftest import tap_holders

pytestmark = pytest.mark.conformance


def _cell_cluster(seed: int) -> Cluster:
    return Cluster(
        seed=seed, mds_config=MDSConfig(segment_events=SEGMENT_EVENTS)
    )


def _strong_global_steps(cluster, seed: int):
    """The ("strong", "global", seed) cell's workload as ``run_cell``
    drives it, yielding between steps so two clusters can take turns."""
    cudele = Cudele(cluster)
    boot = cluster.new_client()
    cluster.run(boot.mkdir(SUBTREE))
    yield
    ns = cluster.run(cudele.decouple(
        SUBTREE,
        SubtreePolicy.from_semantics(
            "strong", "global", allocated_inodes=2048
        ),
    ))
    yield
    rng = RngStream(seed, "conformance/strong/global")
    tracked = []
    _run_burst(cluster, boot, rng, tracked, 0)
    yield
    _crash_recover(cluster, boot.name, mode="local")
    yield
    _run_burst(cluster, boot, rng, tracked, 1)
    yield
    cluster.run(ns.finalize())
    yield
    _crash_recover(cluster, cluster.mds.name, mode="local")


def _observed_run(order):
    cluster = _cell_cluster(0)
    attached = {}
    for kind in order:
        if kind == "obs":
            attached[kind] = Observability(cluster).attach()
        else:
            attached[kind] = HistoryRecorder.attach(cluster)
    for _ in _strong_global_steps(cluster, 0):
        pass
    recorder, obs = attached["recorder"], attached["obs"]
    recorder.record_snapshot(cluster.mds, SUBTREE)
    for kind in order:
        attached[kind].detach()
    return recorder.history.canonical(), obs.tracer.to_dicts()


def test_attach_order_does_not_change_history_or_spans():
    history_a, spans_a = _observed_run(("obs", "recorder"))
    history_b, spans_b = _observed_run(("recorder", "obs"))
    assert history_a == history_b
    assert spans_a == spans_b
    assert len(spans_a) > 0
    # ...and the helper above really is the driver's cell.
    assert history_a == run_cell(("strong", "global", 0))["history"]


@pytest.mark.parametrize("first", ["obs", "recorder"])
def test_detach_in_either_order_leaves_nothing_behind(first):
    cluster = _cell_cluster(0)
    cluster.new_client()
    cluster.new_decoupled_client()
    recorder = HistoryRecorder.attach(cluster)
    obs = Observability(cluster).attach()
    for observer in ((obs, recorder) if first == "obs" else (recorder, obs)):
        assert cluster.tap is not None
        observer.detach()
    for holder in tap_holders(cluster):
        assert holder.tap is None
    # Nothing process-wide survived: a new cluster records normally.
    fresh = _cell_cluster(1)
    again = HistoryRecorder.attach(fresh)
    client = fresh.new_client()
    fresh.run(client.mkdir("/a"))
    again.detach()
    assert [e.kind for e in again.history] == ["invoke", "visible", "complete"]


def _recorded_alone(seed: int) -> str:
    cluster = _cell_cluster(seed)
    recorder = HistoryRecorder.attach(cluster)
    for _ in _strong_global_steps(cluster, seed):
        pass
    recorder.detach()
    return recorder.history.canonical()


def test_two_recorded_clusters_interleaved_match_each_alone():
    clusters = [_cell_cluster(seed) for seed in (3, 4)]
    recorders = [HistoryRecorder.attach(c) for c in clusters]
    runs = [
        _strong_global_steps(cluster, cluster.seed) for cluster in clusters
    ]
    while runs:  # alternate: one step of each cluster in turn
        for run in list(runs):
            try:
                next(run)
            except StopIteration:
                runs.remove(run)
    for recorder in recorders:
        recorder.detach()
    assert recorders[0].history.canonical() != recorders[1].history.canonical()
    for cluster, recorder in zip(clusters, recorders):
        assert recorder.history.canonical() == _recorded_alone(cluster.seed)
