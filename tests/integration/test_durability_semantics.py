"""Failure injection: do the durability levels mean what they claim?

Paper §III-B: 'none' means updates are lost on a failure; 'local' means
updates survive if the client node recovers and reads local storage;
'global' means updates are always recoverable.  These tests crash
clients, MDSs and OSDs at the worst moments and check exactly that.
"""


from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.core.namespace_api import Cudele
from repro.core.policy import SubtreePolicy
from repro.journal.journaler import LocalJournal
from repro.mds.inotable import InoTable
from repro.mds.mdstore import MetadataStore


def make_ns(cluster, consistency, durability, inodes=1000):
    cudele = Cudele(cluster)
    return cluster.run(
        cudele.decouple(
            "/job",
            SubtreePolicy(
                consistency=consistency,
                durability=durability,
                allocated_inodes=inodes,
            ),
        )
    )


def test_none_durability_client_crash_loses_everything():
    cluster = Cluster()
    ns = make_ns(cluster, "append_client_journal", "none")
    cluster.run(ns.create_many([f"f{i}" for i in range(20)]))
    lost = ns.dclient.crash()
    assert lost == 20
    cluster.run(ns.finalize())  # nothing left to merge
    assert not cluster.mds.mdstore.exists("/job/f0")


def test_local_durability_survives_client_recovery():
    """'metadata can be lost if the client or server stays down after a
    failure' — but a recovering client replays its local journal."""
    cluster = Cluster()
    ns = make_ns(cluster, "append_client_journal", "local_persist")
    cluster.run(ns.create_many([f"f{i}" for i in range(20)]))
    # Persist locally (the policy's durability mechanism), then crash.
    ctx = MechanismContext(cluster, "/job", ns.dclient)
    cluster.run(run_mechanism("local_persist", ctx))
    on_disk = ns.dclient.journal.serialize()  # what local storage holds
    ns.dclient.crash()
    # Recovery: read the journal from local disk and merge it.
    recovered = LocalJournal.deserialize(
        cluster.engine, on_disk, client_id=ns.dclient.client_id
    )
    ns.dclient.journal = recovered
    cluster.run(run_mechanism("volatile_apply", ctx))
    assert cluster.mds.mdstore.exists("/job/f0")
    assert cluster.mds.mdstore.exists("/job/f19")


def test_global_durability_survives_mds_loss():
    """Global Persist: the journal is recoverable from the object store
    even if both the client and the MDS's memory are gone."""
    cluster = Cluster()
    ns = make_ns(cluster, "append_client_journal", "global_persist")
    cluster.run(ns.create_many([f"f{i}" for i in range(20)]))
    ctx = MechanismContext(cluster, "/job", ns.dclient)
    cluster.run(run_mechanism("global_persist", ctx))
    striper = ctx.persist_striper()
    ns.dclient.crash()
    cluster.mds.mdstore = MetadataStore()  # MDS memory wiped

    data = cluster.run(striper.read_all())
    recovered = LocalJournal.deserialize(cluster.engine, data)
    assert len(recovered) == 20
    # Replay onto the fresh MDS (the subtree root must be recreated).
    cluster.mds.mdstore.mkdir("/job")
    assert cluster.mds.mdstore.apply_events(recovered.events) == 0
    assert cluster.mds.mdstore.exists("/job/f0")


def test_global_persist_survives_single_osd_failure():
    """Replication 3: one OSD down does not lose the persisted journal."""
    cluster = Cluster(num_osds=3, replication=3)
    ns = make_ns(cluster, "append_client_journal", "global_persist")
    cluster.run(ns.create_many([f"f{i}" for i in range(10)]))
    ctx = MechanismContext(cluster, "/job", ns.dclient)
    cluster.run(run_mechanism("global_persist", ctx))
    striper = ctx.persist_striper()
    cluster.objstore.osds[0].fail()
    data = cluster.run(striper.read_all())
    recovered = LocalJournal.deserialize(cluster.engine, data)
    assert len(recovered) == 10


def test_stream_makes_rpc_updates_survive_mds_restart():
    """Strong/global (rpcs+stream): after an MDS restart the namespace
    is rebuilt from the streamed journal."""
    cluster = Cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/precious"))
    cluster.run(client.create_many("/precious", [f"f{i}" for i in range(10)]))
    cluster.run(cluster.mds.journal.flush())
    done = cluster.mds.shutdown()
    cluster.run()
    assert done.triggered
    cluster.mds.mdstore = MetadataStore()  # lose all MDS memory
    replayed = cluster.run(cluster.mds.restart())
    assert replayed == 11
    assert cluster.mds.mdstore.exists("/precious/f9")


def test_no_journal_rpc_updates_lost_on_mds_wipe():
    """With journaling off (strong/none), MDS memory is the only copy."""
    from repro.mds.server import MDSConfig

    cluster = Cluster(mds_config=MDSConfig(journal_enabled=False))
    client = cluster.new_client()
    cluster.run(client.create_many("/", ["only"]))
    cluster.mds.mdstore = MetadataStore()
    replayed = cluster.run(cluster.mds.restart())
    assert replayed == 0
    assert not cluster.mds.mdstore.exists("/only")


def _image(cluster):
    """The rank-0 checkpoint image, decoded: (store, watermark)."""
    data = cluster.objstore.peek("metadata", "mds0_checkpoint")
    return MetadataStore.decode_image(data, InoTable())


def test_checkpoint_persists_dirfrags_and_trims():
    cluster = Cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/data"))
    cluster.run(client.create_many("/data", [f"f{i}" for i in range(5)]))
    cluster.run(cluster.mds.journal.flush())
    before = set(cluster.objstore.list_objects("metadata"))
    frags = cluster.run(cluster.mds.checkpoint())
    assert frags == 2  # root and /data
    # one new object in the metadata pool holds both fragments, and its
    # watermark covers every event journaled before the checkpoint
    after = set(cluster.objstore.list_objects("metadata"))
    assert after - before == {"mds0_checkpoint"}
    loaded, through = _image(cluster)
    assert through == cluster.mds.journal.last_seq == 6
    assert loaded.listdir("/data") == [f"f{i}" for i in range(5)]


def test_recovery_from_checkpointed_metadata_store():
    """Full recovery path: checkpoint -> wipe -> load from the image."""
    cluster = Cluster()
    client = cluster.new_client()
    cluster.run(client.mkdir("/data"))
    cluster.run(client.create_many("/data", ["a", "b"]))
    cluster.run(cluster.mds.checkpoint())
    loaded, _ = _image(cluster)
    assert loaded.exists("/data/a")
    assert loaded.exists("/data/b")
    assert loaded.resolve("/data/a").ino == cluster.mds.mdstore.resolve(
        "/data/a"
    ).ino


def test_interrupted_global_persist_leaves_no_guarantee():
    """'If a failure occurs during Global Persist ... Cudele makes no
    guarantee until the mechanisms are complete' (§III-B)."""
    cluster = Cluster(num_osds=1, replication=1)
    ns = make_ns(cluster, "append_client_journal", "global_persist")
    cluster.run(ns.create_many([f"f{i}" for i in range(50)]))
    ctx = MechanismContext(cluster, "/job", ns.dclient)
    proc = cluster.engine.process(run_mechanism("global_persist", ctx))
    # Kill the only OSD mid-mechanism.
    cluster.engine.run(until=cluster.now + 1e-5)
    cluster.objstore.osds[0].fail()
    cluster.engine.run()
    assert not proc.ok  # the mechanism failed; no durability claim


def test_volatile_apply_crash_window():
    """Volatile Apply alone gives no durability: updates merged into MDS
    memory vanish if the MDS is wiped before any persist runs."""
    cluster = Cluster()
    ns = make_ns(cluster, "append_client_journal+volatile_apply", "none")
    cluster.run(ns.create_many(["x"]))
    cluster.run(ns.finalize())
    assert cluster.mds.mdstore.exists("/job/x")
    cluster.mds.mdstore = MetadataStore()
    cluster.run(cluster.mds.restart())
    assert not cluster.mds.mdstore.exists("/job/x")


def test_auto_checkpoint_applies_journal_periodically():
    """With checkpoint_every_segments set, the MDS writes its checkpoint
    image on its own as the journal grows."""
    from repro.mds.server import MDSConfig

    cluster = Cluster(
        mds_config=MDSConfig(
            segment_events=50, checkpoint_every_segments=2
        )
    )
    client = cluster.new_client()
    cluster.run(client.mkdir("/bulk"))
    cluster.run(client.create_many("/bulk", [f"f{i}" for i in range(400)]))
    cluster.run()  # drain background checkpoints
    assert cluster.mds.stats.counter("checkpoints").value >= 1
    loaded, through = _image(cluster)
    assert through > 0
    assert loaded.exists("/bulk/f0")
