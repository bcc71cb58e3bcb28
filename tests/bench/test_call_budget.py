"""Deterministic cost gates on the decoupled journal path and the RPC path.

Host seconds drift with the machine; the number of calls the
interpreter makes does not.  The first gate runs the paper's headline
path — append, Local Persist, Global Persist, node loss, recovery scan,
merge — for explicit-name creates on a materialized MDS under
``cProfile`` and bounds the calls per create, so a per-event helper
creeping back into the append / encode / scan / apply loops fails here,
exactly, on any runner of the interpreter the budgets are calibrated on
(CPython 3.11: call counts differ between interpreter versions, e.g.
3.12 inlines comprehensions, so other versions skip these gates).  The
second bounds the calls per op of per-op
RPCs from clients interleaving creates and listings across their own
directories, so an MDS that walks from ``/`` per request again (or
sorts ``(name, ino)`` pairs to list) fails here too.  The third bounds
the calls per op of the open-loop scenario path (``run_seed``: arrival
sampling, session workers, RPCs), so a numpy call back on a per-op draw
or a second frame back on the engine's resume path fails here.  The
fourth bounds the calls per recorded history event of a conformance
pass — recording, ``History.canonical()`` and ``check_history`` over the
seed-0 matrix and corruption drill — so a per-event dict, keyword
bundle or encoder call back on the recorder or the renderer fails here.
"""

import cProfile
import sys

import pytest

from repro.cluster import Cluster
from repro.conformance.driver import run_corruption_drill, run_matrix
from repro.core import Cudele, MechanismContext, SubtreePolicy, run_mechanism
from repro.mds.server import MDSConfig
from repro.scenario.runner import run_seed

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="call budgets are calibrated on CPython 3.11",
)

CREATES = 2000


def _calls(profile: cProfile.Profile) -> int:
    """Every call the profile saw.  ``getstats()`` holds one raw entry
    per code object; ``pstats`` keys entries by (file, line, name), so
    the generated dataclass ``__init__``s, which all read
    ``('<string>', 2, '__init__')``, would keep one entry and drop the
    others' calls, whichever survived."""
    return sum(entry.callcount for entry in profile.getstats())


#: Calls (Python functions and builtins) per create, end to end.
#: Achieved: 26.446 on CPython 3.11 (25.48 / 26.48 while each wire
#: message held a ``Slots`` pipe and slept once per wait, 26.52 at an
#: earlier count;
#: 37.51 while each append went
#: through ``JournalEvent``'s keyword constructor and a sequence-number
#: re-check, and each merged create through ``apply_event -> create ->
#: resolve_parent -> link -> note_external -> Inode.regular`` plus an
#: ``is_consumed`` probe; 37.54 while a free disk-queue slot still
#: built a ``Request`` event, 37.56 while each wire message built a
#: ``Resource`` pipe request; 110.7 before the one-pass journal path).
#: While ``JournalEvent`` was a dataclass the same calls read 36.56: its
#: generated ``__init__`` and ``Inode``'s share the ``pstats`` key
#: ``('<string>', 2, '__init__')``, so one hid the other
#: (docs/PERFORMANCE.md §11).  The budget leaves ~4 %.
CALLS_PER_CREATE_BUDGET = 27.5

RPC_CLIENTS = 4
RPC_ROUNDS = 200

#: Calls per RPC op (create or ls), end to end.  Achieved: 130.035 on
#: CPython 3.11 (139.535 while the client woke at the reply's issue to
#: send it itself, 141.54 while each wire message acquired and released
#: a ``Slots`` pipe around a pooled sleep; 142.5 at an earlier count,
#: 142.0 while ``Inode.regular`` typed its mode inline
#: rather than through ``typed_mode``, which the batched merge shares;
#: 146.0 while each reply also updated a client-side cap
#: mirror and each create passed through an ``_op_create`` wrapper
#: call, 146.5 while a free disk-queue or window slot still built an
#: event, 187.5 while each wire message built and accounted a
#: ``Resource`` pipe request and passed through three wrapper frames,
#: 221.0 with numpy-dispatched draws and a two-frame resume path, 247.5
#: when each interleaved request walked from ``/``); the budget leaves
#: 10 % over the 146.0.
CALLS_PER_RPC_OP_BUDGET = 161

USERS = 1_000_000

#: The ``openloop_ladder`` ledger workload's middle step, shortened:
#: 1 600 ops/s offered by 10^6 Zipf users for 0.5 simulated seconds.
LADDER_SPEC = {
    "name": "budget-ladder",
    "duration_s": 0.5,
    "seeds": 1,
    "sessions": 6,
    "population": {
        "users": USERS,
        "rate_per_user_hz": 1600 / USERS,
        "zipf_s": 1.0,
        "dirs_per_subtree": 4,
    },
    "mix": {"create": 2, "lookup": 1, "stat": 4, "ls": 1},
    "cluster": {
        "num_mds": 1, "num_osds": 3, "materialize": True, "journal": True,
    },
    "subtrees": [
        {"path": "/ladder/strong", "rank": 0,
         "policy": {"consistency": "strong", "durability": "global"}},
        {"path": "/ladder/plain", "rank": 0},
    ],
}

#: Calls per open-loop op, end to end (after one warm-up run, so lazy
#: imports do not count).  Achieved: 164.04 on CPython 3.11 (173.44
#: while the client sent each reply itself, 175.73 while each wire
#: message held a ``Slots`` pipe; 178.55 with
#: the client-side cap mirror, 219.7 with a ``Resource`` pipe request
#: per wire message, 275.1 with numpy-dispatched scalar draws and a
#: two-frame resume path); the budget leaves 10 % over the 178.55.
CALLS_PER_OPENLOOP_OP_BUDGET = 196

#: Calls per recorded history event over the seed-0 conformance matrix
#: and corruption drill (the whole pass: simulation, recording,
#: rendering and checking), after one warm-up pass.  Achieved: 60.83 on
#: CPython 3.11 (61.46 while the client sent each reply itself, 64.52
#: while the monitor fanned each map update out as
#: one process per subscriber and each message held a ``Slots`` pipe;
#: 66.63 at an earlier count, 67.07 while each merged event went through
#: ``apply_event``'s call chain, 87.01 while each event went through a
#: keyword bundle and ``History.append`` and each line through a dict
#: and ``JSONEncoder.encode``); the budget leaves 10 %.
CALLS_PER_HISTORY_EVENT_BUDGET = 74


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
    calls_per_create = _calls(profile) / CREATES
    assert calls_per_create <= CALLS_PER_CREATE_BUDGET, calls_per_create


def test_interleaved_rpc_path_stays_within_its_call_budget():
    cluster = Cluster(seed=0, mds_config=MDSConfig(materialize=True))
    admin = cluster.new_client()
    cluster.run(admin.mkdir("/budget"))
    dirs = [f"/budget/o{i}" for i in range(RPC_CLIENTS)]
    for d in dirs:
        cluster.run(admin.mkdir(d))
    owners = [cluster.new_client() for _ in dirs]

    def rounds():
        listed = 0
        for r in range(RPC_ROUNDS):
            for client, d in zip(owners, dirs):
                resp = yield from client.create_many(d, [f"f{r}"], batch=1)
                assert resp.ok
            for client, d in zip(owners, dirs):
                resp = yield from client.ls(d)
                listed += len(resp.value)
        return listed

    profile = cProfile.Profile()
    profile.enable()
    listed = cluster.run(rounds())
    profile.disable()

    n = RPC_ROUNDS
    assert listed == RPC_CLIENTS * n * (n + 1) // 2
    assert cluster.mds.mdstore.file_count == RPC_CLIENTS * n
    ops = 2 * RPC_CLIENTS * RPC_ROUNDS
    calls_per_op = _calls(profile) / ops
    assert calls_per_op <= CALLS_PER_RPC_OP_BUDGET, calls_per_op


def test_open_loop_path_stays_within_its_call_budget():
    run_seed((LADDER_SPEC, 0))  # warm-up: imports and first-use caches

    profile = cProfile.Profile()
    profile.enable()
    result = run_seed((LADDER_SPEC, 0))
    profile.disable()

    ops = sum(result["completed"].values())
    assert ops == sum(result["offered"].values()) == 774
    assert not any(result["errors"].values())
    calls_per_op = _calls(profile) / ops
    assert calls_per_op <= CALLS_PER_OPENLOOP_OP_BUDGET, calls_per_op


def _conformance_pass():
    return [run_matrix(0, jobs=1), run_corruption_drill(0, jobs=1)]


def test_conformance_pass_stays_within_its_call_budget():
    _conformance_pass()  # warm-up: imports and first-use caches

    profile = cProfile.Profile()
    profile.enable()
    reports = _conformance_pass()
    profile.disable()

    assert all(report["ok"] for report in reports)
    events = sum(
        text.count("\n")
        for report in reports for text in report["histories"].values()
    )
    assert events == 1454
    calls_per_event = _calls(profile) / events
    assert calls_per_event <= CALLS_PER_HISTORY_EVENT_BUDGET, calls_per_event
