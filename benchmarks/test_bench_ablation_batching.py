"""Ablation: merge granularity.

Decoupled namespaces win partly because clients "batch events into bulk
updates" (paper §V-B1).  This ablation merges the same journal in 1,
10, 100 and 1000 chunks: finer granularity pays the per-merge network
round trip and MDS dispatch more often, converging toward RPC-like
behaviour.
"""

from repro.bench.report import format_table
from repro.cluster import Cluster
from repro.core.mechanisms import merge_journal
from repro.journal.events import WIRE_EVENT_BYTES
from repro.mds.server import MDSConfig

CHUNKS = [1, 10, 100, 1000]


def run_merge_granularity(scale):
    total = scale.fig5_ops
    rows = []
    base = None
    for chunks in CHUNKS:
        cluster = Cluster(mds_config=MDSConfig(materialize=False))
        per = max(1, total // chunks)

        def body():
            for _ in range(chunks):
                yield from cluster.network.send(
                    "dclient", cluster.mds.name, per * WIRE_EVENT_BYTES
                )
                yield from merge_journal(cluster.mds, "/sub", 5, count=per)

        t0 = cluster.now
        cluster.run(body())
        t = cluster.now - t0
        base = base or t
        rows.append((chunks, t, t / base))
    return rows


def test_bench_ablation_batching(benchmark, scale):
    rows = benchmark.pedantic(
        lambda: run_merge_granularity(scale), rounds=1, iterations=1
    )
    print("\n== ablation: merge granularity (vs one bulk merge) ==")
    print(format_table(["merges", "time (s)", "relative"], rows))
    benchmark.extra_info["sweep"] = [(c, rel) for c, _, rel in rows]
    rel = [r for _, _, r in rows]
    # finer-grained merging is monotonically more expensive
    assert rel == sorted(rel)
    assert rel[-1] > rel[0]
