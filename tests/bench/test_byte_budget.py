"""A deterministic memory gate on the decoupled journal path.

Peak RSS drifts with the allocator and the machine; the bytes the
interpreter holds for live objects do not.  This runs the sequence of
``test_call_budget.py`` — append, Local Persist, Global Persist, node
loss, recovery scan, merge — for explicit-name creates on a
materialized MDS under ``tracemalloc`` and bounds the resident bytes
per create, so a heavier value object (a ``__dict__`` back on
``JournalEvent`` / ``Inode``, one ``int`` per event for a field every
event shares, a per-inode consumed mark) fails here, exactly, on any
runner.

Census on CPython 3.11, bytes resident per create after each phase
(before the value objects were slimmed → slotted dataclasses → the
tuple-backed event, which is 16 B heavier: a 10-tuple lands in
pymalloc's 128-byte size class, the slotted object in the 112-byte
one → journal v3, whose events carry ``size`` → the decoder sharing
one client id across frames), to locate a regression:

=====================  ======  =====  =====  =====  ======  =====================
phase                  before  slots  tuple     v3  client  what is resident
=====================  ======  =====  =====  =====  ======  =====================
append                    293    245    261    269     269  journal events
                                                            (instance, path,
                                                            ``ino`` / ``seq``)
Global Persist            371    323    339    355     355  + the durable image
                                                            (bytes) and the
                                                            Local Persist list
``crash(lose_disk)``       70     70     70     78      78  the durable image
recovery scan             439    339    355    371     343  + the rebuilt events:
                                                            instance, path,
                                                            ``ino`` / ``seq``
                                                            (``mode`` /
                                                            ``mtime`` / client
                                                            id shared)
merge                   833.4  548.4  564.4  563.8   535.8  + inode, dentry name,
                                                            two dict slots
                                                            (consumed marks:
                                                            one run)
=====================  ======  =====  =====  =====  ======  =====================
"""

import gc
import tracemalloc

from repro.cluster import Cluster
from repro.core import Cudele, MechanismContext, SubtreePolicy, run_mechanism
from repro.mds.server import MDSConfig

CREATES = 20000

#: Resident bytes per create once the journal is merged.  Achieved:
#: 535.8 on CPython 3.11 (563.8 with a fresh client-id ``int`` per
#: decoded event; 548.4 with slotted dataclass events; 833.4 with
#: dict-backed events and inodes, a fresh ``mode`` / ``mtime`` per
#: decoded event and a ``set`` of consumed inodes); the budget leaves
#: ~12 % for interpreter differences.
MERGED_BYTES_PER_CREATE_BUDGET = 600

#: After the node is lost only the object store's copy may remain
#: (~78 B of encoded frame per create).
NODE_LOSS_BYTES_PER_CREATE_BUDGET = 80


def _resident_per_create() -> float:
    gc.collect()
    return tracemalloc.get_traced_memory()[0] / CREATES


def test_decoupled_path_stays_within_its_byte_budget():
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

    census = {}
    tracemalloc.start()
    try:
        cluster.run(dclient.create_many(ns.path, names))
        census["append"] = _resident_per_create()
        cluster.run(run_mechanism("local_persist", ctx))
        cluster.run(run_mechanism("global_persist", ctx))
        census["global_persist"] = _resident_per_create()
        dclient.crash(lose_disk=True)
        census["node_loss"] = _resident_per_create()
        recovered = cluster.run(
            dclient.recover_global(ctx.persist_striper())
        )
        census["recovery"] = _resident_per_create()
        cluster.run(run_mechanism("volatile_apply", ctx))
        census["merge"] = _resident_per_create()
    finally:
        tracemalloc.stop()

    assert recovered == CREATES
    assert cluster.mds.mdstore.file_count == CREATES
    assert census["node_loss"] <= NODE_LOSS_BYTES_PER_CREATE_BUDGET, census
    assert census["merge"] <= MERGED_BYTES_PER_CREATE_BUDGET, census
