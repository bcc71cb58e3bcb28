"""Observability of live subtree migration — and its zero cost.

Detached, observation must not perturb anything: the conformance
migration drill and the ``migrate`` bench artifact are byte-identical
with and without instrumentation.  Attached, the handoff is fully
visible: an ``mds.migrate`` span with frozen-window histograms, and
the client's redirect hop — one ``client.rpc`` span whose children are
an ``mds.handle`` on the *old* rank (the redirect reply) followed by
an ``mds.handle`` on the *new* authority.
"""

import pytest

from repro.bench import harness
from repro.cluster import Cluster
from repro.mds.migrate import migrate_subtree
from repro.obs import Observability

SUBTREE = "/job"


@pytest.fixture(autouse=True)
def _reset_default_jobs():
    yield
    harness._default_jobs = None


def test_migrate_cell_identical_under_obs():
    from repro.conformance.driver import run_cell

    bare = run_cell(("strong", "global", 0, False, True))
    instrumented = run_cell(("strong", "global", 0, True, True))
    assert instrumented["verdict"] == bare["verdict"]
    assert instrumented["history"] == bare["history"]
    assert "obs" not in bare
    summary = instrumented["obs"]
    assert summary["span_count"] > 0
    assert any(r["mechanism"] == "migrate" for r in summary["breakdown"])


def test_bench_migrate_artifact_byte_identical_with_obs(tmp_path,
                                                        monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "tiny")
    plain = tmp_path / "plain"
    probed = tmp_path / "obs"
    assert main(["--json", str(plain), "migrate"]) == 0
    assert main(["--json", str(probed), "--obs", "migrate"]) == 0
    assert (plain / "migrate.json").read_bytes() == \
        (probed / "migrate.json").read_bytes()


def _drive_handoff(cluster):
    """Closed-loop client traffic with the migration injected
    mid-stream, so at least one op straddles the frozen window and has
    to chase a redirect from rank 0 to rank 1."""
    cluster.assign_subtree_mds(SUBTREE, 0)
    client = cluster.new_client()
    completed = []

    def driver():
        resp = yield cluster.engine.process(client.mkdir(SUBTREE))
        assert resp.ok
        for i in range(60):
            resp = yield cluster.engine.process(
                client.create(f"{SUBTREE}/f{i}")
            )
            assert resp.ok
            completed.append(i)

    def migrator():
        while len(completed) < 10:
            yield cluster.engine.sleep(1e-3)
        result = yield from migrate_subtree(cluster, SUBTREE, 1)
        assert result.status == "done", result.reason

    cluster.engine.process(driver())
    cluster.engine.process(migrator())
    cluster.run()
    assert len(completed) == 60
    return client


def test_attached_migration_span_and_histograms():
    cluster = Cluster(num_mds=2, seed=0)
    with Observability(cluster) as obs:
        _drive_handoff(cluster)
        spans = [s for s in obs.tracer.spans if s.name == "mds.migrate"]
        assert len(spans) == 1
        span = spans[0]
        assert span.daemon == "mds0" and span.mechanism == "migrate"
        tags = dict(span.tags)
        assert tags["subtree"] == SUBTREE and tags["dst"] == "mds1"
        assert span.finished and span.duration_s > 0

        count = obs.hub.get(
            "mds.migrate.count", daemon="mds0", mechanism="migrate",
            status="done",
        )
        assert count is not None and count.value == 1
        for name in ("mds.migrate.frozen_s", "mds.migrate.rows",
                     "mds.migrate.moved_events"):
            hist = obs.hub.get(name, daemon="mds0", mechanism="migrate")
            assert hist is not None and hist.count == 1
        frozen = obs.hub.get(
            "mds.migrate.frozen_s", daemon="mds0", mechanism="migrate"
        )
        assert frozen.sum > 0


def test_attached_shows_client_redirect_trace():
    """The post-flip create renders as client -> old rank (redirect)
    -> new rank under a single client.rpc span."""
    cluster = Cluster(num_mds=2, seed=0)
    with Observability(cluster) as obs:
        _drive_handoff(cluster)
        rpc_spans = [s for s in obs.tracer.spans if s.name == "client.rpc"]
        handles = {
            s.parent_id: [] for s in obs.tracer.spans
            if s.name == "mds.handle"
        }
        for s in obs.tracer.spans:
            if s.name == "mds.handle":
                handles[s.parent_id].append(s)
        redirected = [
            s for s in rpc_spans
            if [h.daemon for h in handles.get(s.span_id, [])]
            == ["mds0", "mds1"]
        ]
        assert redirected, (
            "no client.rpc span shows the old-rank -> new-rank hop"
        )
        old_hop, new_hop = handles[redirected[-1].span_id]
        assert old_hop.t_end <= new_hop.t_start

        # The per-subtree counters followed the authority: rank 1 served
        # SUBTREE traffic after the flip, and only rank 0 before it.
        moved = obs.hub.get(
            "subtree_ops", daemon="mds1", mechanism="rpc", subtree=SUBTREE
        )
        assert moved is not None and moved.value > 0


def test_detached_migration_leaves_no_observer_state():
    cluster = Cluster(num_mds=2, seed=0)
    _drive_handoff(cluster)
    assert cluster.tap is None
    for mds in cluster.mds_list:
        assert mds.tap is None
