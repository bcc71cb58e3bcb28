"""A deterministic cost gate on the decoupled journal path.

Host seconds drift with the machine; the number of calls the
interpreter makes does not.  This runs the paper's headline path —
append, Local Persist, Global Persist, node loss, recovery scan, merge —
for explicit-name creates on a materialized MDS under ``cProfile`` and
bounds the calls per create, so a per-event helper creeping back into
the append / encode / scan / apply loops fails here, exactly, on any
runner.
"""

import cProfile
import pstats

from repro.cluster import Cluster
from repro.core import Cudele, MechanismContext, SubtreePolicy, run_mechanism
from repro.mds.server import MDSConfig

CREATES = 2000

#: Calls (Python functions and builtins) per create, end to end.
#: Achieved: 34.7 on CPython 3.11 (110.7 before the one-pass journal
#: path); the budget leaves 10 % for interpreter differences.
CALLS_PER_CREATE_BUDGET = 38


def test_decoupled_path_stays_within_its_call_budget():
    cluster = Cluster(seed=0, mds_config=MDSConfig(materialize=True))
    ns = cluster.run(Cudele(cluster).decouple(
        "/budget/d0",
        SubtreePolicy.from_semantics(
            "weak", "global", allocated_inodes=CREATES
        ),
    ))
    dclient = ns.dclient
    names = [f"f{k}" for k in range(CREATES)]
    ctx = MechanismContext(cluster, ns.path, dclient)

    profile = cProfile.Profile()
    profile.enable()
    cluster.run(dclient.create_many(ns.path, names))
    cluster.run(run_mechanism("local_persist", ctx))
    cluster.run(run_mechanism("global_persist", ctx))
    persisted = list(dclient.journal.events)
    dclient.crash(lose_disk=True)
    recovered = cluster.run(dclient.recover_global(ctx.persist_striper()))
    cluster.run(run_mechanism("volatile_apply", ctx))
    profile.disable()

    assert recovered == CREATES
    assert dclient.journal.events == persisted
    assert cluster.mds.mdstore.file_count == CREATES
    calls_per_create = pstats.Stats(profile).total_calls / CREATES
    assert calls_per_create <= CALLS_PER_CREATE_BUDGET, calls_per_create
