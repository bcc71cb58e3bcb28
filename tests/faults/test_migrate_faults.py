"""Crash-mid-migration fault matrix: exactly one authority, always.

Every cell of {src, dst, both} x {export_prep, transfer, import, flip,
commit} fail-stops the named rank(s) at the named protocol phase of a
live subtree migration, recovers the crashed rank(s) from durable
state, and holds the run to the handoff's safety contract:

* exactly one rank holds the subtree's authority afterwards — the
  source if the handoff aborted, the destination if it committed;
* the conformance oracle accepts the recorded history (the two-phase
  journal record lets the checker's reference model follow whichever
  side of the flip the crash landed on);
* every migration record is closed (no dangling ``begin``).

A final regression holds the corrupted-recovery classification intact
when a history also carries migration records: a persist fault plus a
mid-run migration still classifies as ``corrupt-recovery-*``, not as a
migration violation or a bare durability code.
"""

import pytest

from repro.cluster import Cluster
from repro.conformance import History, check_history
from repro.conformance.recorder import HistoryRecorder
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.faults import FaultInjector, FaultPlan
from repro.mds.migrate import PHASES, migrate_subtree

pytestmark = pytest.mark.faults

SUBTREE = "/job"

#: (crash target, phase) -> expected migration status.  The handoff
#: commits despite a *source* crash once the frozen-window transfer is
#: complete (the destination holds the journaled state); it aborts on
#: any destination crash before the authority flip.
EXPECTED = {
    ("src", "export_prep"): "aborted",
    ("dst", "export_prep"): "aborted",
    ("both", "export_prep"): "aborted",
    ("src", "transfer"): "aborted",
    ("dst", "transfer"): "aborted",
    ("both", "transfer"): "aborted",
    ("src", "import"): "done",
    ("dst", "import"): "aborted",
    ("both", "import"): "aborted",
    ("src", "flip"): "done",
    ("dst", "flip"): "aborted",
    ("both", "flip"): "aborted",
    ("src", "commit"): "done",
    ("dst", "commit"): "done",
    ("both", "commit"): "done",
}


def _run_case(crash, phase):
    cluster = Cluster(num_mds=2, seed=0)
    rec = HistoryRecorder.attach(cluster)
    try:
        cluster.assign_subtree_mds(SUBTREE, 0)
        client = cluster.new_client()

        def boot():
            resp = yield cluster.engine.process(client.mkdir(SUBTREE))
            assert resp.ok
            resp = yield cluster.engine.process(
                client.create_many(SUBTREE, [f"f{i}" for i in range(8)])
            )
            assert resp.ok

        cluster.run(boot())

        def hook(p):
            if p != phase:
                return
            if crash in ("src", "both"):
                cluster.mds_list[0].crash()
            if crash in ("dst", "both"):
                cluster.mds_list[1].crash()

        result = cluster.run(
            migrate_subtree(cluster, SUBTREE, 1, phase_hook=hook)
        )

        def recover_all():
            for mds in cluster.mds_list:
                if not mds.up:
                    yield cluster.engine.process(mds.recover())

        cluster.run(recover_all())
        authority = cluster.mon.authority_of(SUBTREE)
        rec.record_snapshot(cluster.mds_for(SUBTREE), SUBTREE)
        verdict = check_history(rec.history, "strong", "global",
                                subtree=SUBTREE)
        return result, authority, verdict, rec.history
    finally:
        rec.detach()


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("crash", ("src", "dst", "both"))
def test_crash_matrix_exactly_one_authority(crash, phase):
    result, authority, verdict, history = _run_case(crash, phase)
    assert result.status == EXPECTED[(crash, phase)], result.reason
    # Exactly-one-authority: committed handoffs land on the
    # destination, aborted ones stay with the source — never both,
    # never neither.
    assert authority == (1 if result.status == "done" else 0)
    assert verdict["ok"], verdict["violations"]
    # No dangling begin: every recorded migration closed with a commit
    # or an abort.
    open_subs = set()
    for e in history.of_kind("migrate"):
        if e.detail["phase"] == "begin":
            open_subs.add(e.path)
        else:
            open_subs.discard(e.path)
    assert not open_subs


def test_matrix_covers_every_cell():
    assert set(EXPECTED) == {
        (c, p) for c in ("src", "dst", "both") for p in PHASES
    }


def test_corrupt_recovery_codes_survive_migration_histories():
    """A torn persist plus a mid-run migration: the oracle must still
    classify damaged-image recovery as ``corrupt-recovery-*`` (the
    migration records must not mask or re-label the corruption path)."""
    cluster = Cluster(num_mds=2, seed=0)
    rec = HistoryRecorder.attach(cluster)
    try:
        cluster.assign_subtree_mds(SUBTREE, 0)
        cudele = Cudele(cluster)
        boot = cluster.new_client()
        cluster.run(boot.mkdir(SUBTREE))
        policy = SubtreePolicy.from_semantics(
            "invisible", "local", allocated_inodes=256
        )
        ns = cluster.run(cudele.decouple(SUBTREE, policy))
        owner = ns.dclient.name
        cluster.run(
            ns.dclient.create_many(SUBTREE, [f"c{i}" for i in range(10)])
        )

        plan = FaultPlan().persist_fault(
            cluster.now + 0.001, owner, "torn", seed=0, scope="local"
        )
        FaultInjector(cluster, plan).start()
        cluster.run()
        ctx = MechanismContext(cluster, SUBTREE, ns.dclient)
        cluster.run(run_mechanism("local_persist", ctx))

        res = cluster.run(migrate_subtree(cluster, SUBTREE, 1))
        assert res.status == "done"

        t = cluster.now
        plan = FaultPlan()
        plan.crash(t + 0.005, owner)
        plan.recover(t + 0.050, owner, mode="local")
        FaultInjector(cluster, plan).start()
        cluster.run()
        rec.record_snapshot(cluster.mds_for(SUBTREE), SUBTREE)

        verdict = check_history(rec.history, "invisible", "local",
                                subtree=SUBTREE, owner=owner)
        assert verdict["ok"], verdict["violations"]

        # Injected negative: drop the recovered event at the damaged
        # image's valid watermark -> the corruption code, not a
        # migration code.
        events = rec.history.events
        fault = next(e for e in events if e.kind == "persist_fault")
        valid_seq = fault.detail["valid_seq"]
        assert valid_seq >= 1, "torn fault salvaged nothing?"
        kept = [
            e for e in events
            if not (e.kind == "recovered" and e.seq == valid_seq)
        ]
        verdict = check_history(
            History(kept), "invisible", "local", subtree=SUBTREE, owner=owner,
        )
        codes = {v["code"] for v in verdict["violations"]}
        assert "corrupt-recovery-lost" in codes
        assert not codes & {
            "migrate-incomplete-handoff", "migrate-dual-authority"
        }
    finally:
        rec.detach()
