"""Checkpoint-restart: the paper's motivating HPC workload.

N ranks dump a checkpoint (one file per rank per step — the N:N create
pattern).  We run the same job against a strong-consistency POSIX
subtree and against a fully relaxed decoupled subtree, reproducing the
headline result: "91.7x speedup if consistency is fully relaxed".

It also demonstrates the durability trade-off the paper warns about:
a decoupled client that crashes before persisting loses its updates,
while Local Persist makes them recoverable.

Run:  python examples/checkpoint_restart.py
"""

from repro import Cluster, Cudele
from repro.client.decoupled import DecoupledClient
from repro.journal.journaler import LocalJournal
from repro.mds.server import MDSConfig
from repro.sim.engine import AllOf

RANKS = 8
FILES_PER_RANK = 2_000


def posix_checkpoint() -> float:
    """All ranks checkpoint through RPCs (strong consistency)."""
    cluster = Cluster(mds_config=MDSConfig(materialize=False))

    def rank(i):
        client = cluster.new_client()
        resp = yield cluster.engine.process(
            client.create_many(f"/ckpt/rank{i}", FILES_PER_RANK)
        )
        assert resp.ok

    def job():
        yield AllOf(
            cluster.engine,
            [cluster.engine.process(rank(i)) for i in range(RANKS)],
        )

    t0 = cluster.now
    cluster.run(job())
    return cluster.now - t0


def decoupled_checkpoint() -> float:
    """Each rank owns a decoupled subtree with relaxed semantics."""
    cluster = Cluster(mds_config=MDSConfig(materialize=False))
    cudele = Cudele(cluster)
    policy_text = (
        'consistency: "append client journal"\n'
        'durability: "local persist"\n'
        "allocated_inodes: 0\n"
    )
    spaces = [
        cluster.run(
            cudele.decouple(f"/ckpt/rank{i}", policy_text, persist_each=True)
        )
        for i in range(RANKS)
    ]

    def job():
        yield AllOf(
            cluster.engine,
            [
                cluster.engine.process(ns.create_many(FILES_PER_RANK))
                for ns in spaces
            ],
        )

    t0 = cluster.now
    cluster.run(job())
    return cluster.now - t0


def crash_demo() -> None:
    """Durability semantics under a client crash."""
    cluster = Cluster()
    d_volatile = DecoupledClient(cluster.engine, 1)
    cluster.run(d_volatile.create_many("/ckpt", [f"f{i}" for i in range(100)]))

    d_durable = DecoupledClient(cluster.engine, 2)
    cluster.run(d_durable.create_many("/ckpt", [f"g{i}" for i in range(100)]))
    snapshot = d_durable.journal.serialize()  # Local Persist (serialized form)
    cluster.run(d_durable.journal.persist_local(d_durable.disk))

    lost = d_volatile.crash()
    d_durable.crash()
    recovered = LocalJournal.deserialize(cluster.engine, snapshot)
    print(f"  none durability:  crash lost {lost} updates "
          "(checkpoint must be redone)")
    print(f"  local durability: crash recovered {len(recovered)} updates "
          "from the on-disk journal")


def main() -> None:
    print(f"checkpoint: {RANKS} ranks x {FILES_PER_RANK} files")
    posix_t = posix_checkpoint()
    dec_t = decoupled_checkpoint()
    print(f"  POSIX subtree (RPCs+stream):        {posix_t:8.2f} simulated s")
    print(f"  decoupled subtrees (append+persist): {dec_t:8.2f} simulated s")
    print(f"  speedup: {posix_t / dec_t:.1f}x "
          "(paper: up to 91.7x at 20 clients, fully relaxed)")
    print("\ncrash behaviour (paper §II-A):")
    crash_demo()


if __name__ == "__main__":
    main()
