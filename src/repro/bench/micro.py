"""Microbenchmarks for the simulator itself (``BENCH_micro.json``).

The experiment runners report *simulated* time; this module reports how
fast the **host** chews through simulator work, so performance changes
to the engine and the bench harness are visible as a tracked trajectory
instead of anecdotes.  Nine throughput probes:

* ``engine_heap_events`` — timeout chains with nonzero delays (the
  heap + pooled-timeout path).
* ``engine_fastpath_events`` — zero-delay chains (the immediate-event
  FIFO fast path).
* ``rpc_creates`` — end-to-end creates/s through the RPC client, MDS
  and network stack.
* ``decoupled_creates`` — creates/s appended to a decoupled client's
  journal.
* ``journal_replay`` — entries/s replayed into the MDS by the
  ``volatile_apply`` mechanism.
* ``local_persist_events`` — events/s through the batch Local Persist
  mechanism (journal snapshot + simulated disk write + bookkeeping).
* ``segment_scan_events`` — events/s through segment encode plus the
  verifying recovery scan (the checksummed-recovery hot loop).
* ``actors_10k_serial`` / ``actors_100k_serial`` — events/s through a
  population of 10^4 / 10^5 independent timer actors: the only probes
  of the kernel with a deep heap.  Actor counts and hops-per-actor are
  fixed across scales so baselines stay comparable.

Every probe runs ``repeat`` times and keeps the best wall time (least
host noise).  ``compare_micro`` is the regression gate: it diffs two
``BENCH_micro.json`` artifacts and fails when any probe slowed down by
more than a tolerance.

Wall-clock reads in this module are the measurement, not simulation
state, so each carries a counted simlint waiver.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.bench.scales import Scale, get_scale
from repro.cluster import Cluster
from repro.core.mechanisms import MechanismContext, run_mechanism
from repro.mds.server import MDSConfig
from repro.sim.engine import Engine

__all__ = [
    "MicroResult",
    "MicroReport",
    "run_micro",
    "dump_micro",
    "load_micro",
    "compare_micro",
    "main",
]

SCHEMA = "repro.bench.micro/v1"
ARTIFACT_NAME = "BENCH_micro.json"


@dataclass(frozen=True)
class MicroResult:
    """One probe: work units per host second, best of ``repeat`` runs."""

    name: str
    #: What one work unit is ("events", "creates", "entries").
    unit: str
    #: Work units per host-wall second (higher is better).
    per_sec: float
    #: Best (smallest) wall time across repeats, seconds.
    wall_s: float
    #: Work units per run.
    n: int


def _timed(fn: Callable[[], Union[int, Tuple[int, float]]], repeat: int) -> Tuple[float, int]:
    """Best wall time over ``repeat`` runs of ``fn`` (returns its n).

    A probe may return ``(n, wall_s)`` to report a self-measured phase
    instead of its whole body — the actor-scale probes do this to time
    dispatch only, excluding the population spawn.
    """
    best = float("inf")
    n = 0
    for _ in range(max(1, repeat)):
        # simlint: ignore[wall-clock] host throughput measurement is the point
        t0 = time.perf_counter()
        out = fn()
        # simlint: ignore[wall-clock] host throughput measurement is the point
        elapsed = time.perf_counter() - t0
        if isinstance(out, tuple):
            n, elapsed = out
        else:
            n = out
        best = min(best, elapsed)
    return max(best, 1e-9), n


def _bench_engine(n_events: int, delay: float) -> int:
    engine = Engine()

    def chain():
        for _ in range(n_events):
            yield engine.sleep(delay)

    engine.process(chain())
    engine.run()
    return n_events


def _fresh_cluster(
    seed: int = 0, journal: bool = True, materialize: bool = False
) -> Cluster:
    return Cluster(
        mds_config=MDSConfig(journal_enabled=journal, materialize=materialize),
        seed=seed,
    )


def _bench_rpc_creates(ops: int) -> int:
    cluster = _fresh_cluster(journal=False)
    client = cluster.new_client()
    resp = cluster.run(client.mkdir("/micro"))
    assert resp.ok, resp.error
    resp = cluster.run(client.create_many("/micro", ops, batch=100))
    assert resp.ok, resp.error
    return ops


def _bench_decoupled_creates(ops: int) -> int:
    # Explicit names force one journal entry per create; a plain count
    # would be recorded as a single batched op (O(1) host work).
    cluster = _fresh_cluster()
    client = cluster.new_decoupled_client()
    names = [f"f{i}" for i in range(ops)]
    cluster.run(client.create_many("/micro", names))
    return ops


def _bench_journal_replay(ops: int) -> int:
    # Materialized MDS so volatile_apply replays each entry through the
    # metadata store (real per-event work), not just the cost model.
    cluster = _fresh_cluster(materialize=True)
    cluster.mds.mdstore.mkdir("/micro")
    client = cluster.new_decoupled_client()
    names = [f"f{i}" for i in range(ops)]
    cluster.run(client.create_many("/micro", names))
    ctx = MechanismContext(cluster, "/micro", client)
    cluster.run(run_mechanism("volatile_apply", ctx))
    applied = cluster.mds.mdstore.events_applied
    assert applied >= ops, f"replay applied {applied} < {ops}"
    return ops


def _bench_local_persist(ops: int) -> int:
    # The batch persist path: journal appends, then one local_persist
    # mechanism run (simulated disk write + the persisted-snapshot
    # bookkeeping recovery depends on).
    cluster = _fresh_cluster()
    client = cluster.new_decoupled_client()
    names = [f"f{i}" for i in range(ops)]
    cluster.run(client.create_many("/micro", names))
    ctx = MechanismContext(cluster, "/micro", client)
    cluster.run(run_mechanism("local_persist", ctx))
    assert client.persisted_events == ops
    return ops


def _bench_segment_scan(ops: int) -> int:
    # Segmented encode plus the verifying scan — pure host work, the
    # loop every corrupted-recovery path runs over the on-disk image.
    from repro.journal.events import EventType, JournalEvent
    from repro.journal.format import JournalCodec

    events = [
        JournalEvent(EventType.CREATE, f"/micro/f{i}", ino=i + 1,
                     mtime=0.0, seq=i + 1)
        for i in range(ops)
    ]
    data = JournalCodec.encode_stream(events, segment_events=64)
    scan = JournalCodec.scan_stream(data)
    assert scan.ok and len(scan.events) == ops
    return ops


def _actor_body(engine: Engine, period: float, hops: int):
    for _ in range(hops):
        yield engine.sleep(period)


def _bench_actors(actors: int, hops: int) -> Tuple[int, float]:
    """``actors`` independent timer processes with staggered periods (so
    the heap carries the whole population, like an open-loop client
    fleet idling between requests)."""
    engine = Engine()
    for i in range(actors):
        engine.process(_actor_body(engine, ((i % 97) + 1) * 1e-5, hops))
    # simlint: ignore[wall-clock] host throughput measurement is the point
    t0 = time.perf_counter()
    engine.run()
    # simlint: ignore[wall-clock] host throughput measurement is the point
    return actors * hops, time.perf_counter() - t0


def run_micro(
    scale: Optional[Scale] = None, repeat: int = 3
) -> List[MicroResult]:
    """Run every probe at the given scale; returns results in a fixed
    order (the artifact is diffable run-to-run)."""
    scale = scale or get_scale()
    n_events = max(10_000, scale.fig5_ops * 5)
    ops = scale.fig5_ops
    probes: List[Tuple[str, str, Callable[[], int]]] = [
        ("engine_heap_events", "events",
         lambda: _bench_engine(n_events, 1e-6)),
        ("engine_fastpath_events", "events",
         lambda: _bench_engine(n_events, 0.0)),
        ("rpc_creates", "creates", lambda: _bench_rpc_creates(ops)),
        ("decoupled_creates", "creates",
         lambda: _bench_decoupled_creates(ops)),
        ("journal_replay", "entries", lambda: _bench_journal_replay(ops)),
        ("local_persist_events", "events",
         lambda: _bench_local_persist(ops)),
        ("segment_scan_events", "events",
         lambda: _bench_segment_scan(ops)),
    ]
    # The actor probes are fixed-size at every scale: the point is the
    # 10^4/10^5 population sizes, and a shallow per-actor depth would
    # measure generator spawn/teardown churn instead of steady-state
    # dispatch.
    hops = 10
    probes.extend([
        ("actors_10k_serial", "events",
         lambda: _bench_actors(10_000, hops)),
        ("actors_100k_serial", "events",
         lambda: _bench_actors(100_000, hops)),
    ])
    results = []
    for name, unit, fn in probes:
        wall, n = _timed(fn, repeat)
        results.append(
            MicroResult(name=name, unit=unit, per_sec=n / wall,
                        wall_s=wall, n=n)
        )
    return results


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------


def dump_micro(
    results: List[MicroResult],
    path: Union[str, Path],
    scale_name: str,
    repeat: int,
) -> Path:
    """Write the probe results as ``BENCH_micro.json``; returns the path."""
    path = Path(path)
    if path.is_dir():
        path = path / ARTIFACT_NAME
    payload = {
        "schema": SCHEMA,
        "scale": scale_name,
        "repeat": repeat,
        "results": [asdict(r) for r in results],
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_micro(path: Union[str, Path]) -> Dict[str, MicroResult]:
    """Read a ``BENCH_micro.json`` artifact, keyed by probe name.

    Raises ``ValueError`` on schema mismatch or missing fields so the
    CLI can turn a malformed artifact into a clear exit message.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a {SCHEMA} artifact "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    try:
        return {
            r["name"]: MicroResult(**r) for r in payload["results"]
        }
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed results: {exc}") from exc


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------


@dataclass
class MicroReport:
    """Outcome of diffing two microbenchmark artifacts."""

    tolerance: float
    #: (name, baseline per_sec, candidate per_sec) slower than tolerated.
    regressions: List[Tuple[str, float, float]] = field(default_factory=list)
    #: Probes in the baseline but not the candidate.
    missing: List[str] = field(default_factory=list)
    #: (name, speedup-ratio) for every probe present in both.
    ratios: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def __str__(self) -> str:
        lines = [
            "micro compare (tolerance "
            f"{self.tolerance:.0%}): {'OK' if self.ok else 'REGRESSED'}"
        ]
        lines.extend(f"  missing probe: {name}" for name in self.missing)
        for name, base, cand in self.regressions:
            lines.append(
                f"  {name}: {base:,.0f}/s -> {cand:,.0f}/s "
                f"({cand / base - 1.0:+.1%})"
            )
        for name, ratio in self.ratios:
            lines.append(f"  {name}: {ratio:.2f}x vs baseline")
        return "\n".join(lines)


def compare_micro(
    baseline_path: Union[str, Path],
    candidate_path: Union[str, Path],
    tolerance: float = 0.30,
) -> MicroReport:
    """Fail when any probe's throughput dropped more than ``tolerance``.

    The default tolerance is deliberately loose (30%): these are
    host-wall measurements and CI machines are noisy.  The gate exists
    to catch order-of-magnitude cliffs, not 5% wiggles.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    base = load_micro(baseline_path)
    cand = load_micro(candidate_path)
    report = MicroReport(tolerance=tolerance)
    for name, b in base.items():
        c = cand.get(name)
        if c is None:
            report.missing.append(name)
            continue
        ratio = c.per_sec / b.per_sec if b.per_sec else float("inf")
        report.ratios.append((name, ratio))
        if ratio < 1.0 - tolerance:
            report.regressions.append((name, b.per_sec, c.per_sec))
    return report


# ---------------------------------------------------------------------------
# CLI (dispatched from ``python -m repro.bench micro``)
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.bench micro [--json DIR] [--repeat N]``
    or ``... micro compare BASE.json CAND.json [tolerance]``."""
    argv = list(argv if argv is not None else sys.argv[1:])
    if argv and argv[0] == "compare":
        args = argv[1:]
        if len(args) not in (2, 3):
            print("usage: python -m repro.bench micro compare BASE.json "
                  "CAND.json [tolerance]", file=sys.stderr)
            return 2
        tolerance = float(args[2]) if len(args) == 3 else 0.30
        try:
            report = compare_micro(args[0], args[1], tolerance)
        except FileNotFoundError as exc:
            print(f"micro compare: missing artifact: {exc}", file=sys.stderr)
            return 2
        except (json.JSONDecodeError, ValueError) as exc:
            print(f"micro compare: malformed artifact: {exc}", file=sys.stderr)
            return 2
        print(report)
        return 0 if report.ok else 1

    json_dir = None
    if "--json" in argv:
        idx = argv.index("--json")
        try:
            json_dir = Path(argv[idx + 1])
        except IndexError:
            print("--json requires a directory argument", file=sys.stderr)
            return 2
        del argv[idx : idx + 2]
    repeat = 3
    if "--repeat" in argv:
        idx = argv.index("--repeat")
        try:
            repeat = max(1, int(argv[idx + 1]))
        except (IndexError, ValueError):
            print("--repeat requires an integer argument", file=sys.stderr)
            return 2
        del argv[idx : idx + 2]
    if argv:
        print(f"unknown micro arguments: {argv}", file=sys.stderr)
        return 2

    scale = get_scale()
    print(f"micro suite at scale {scale.name} (best of {repeat}):")
    results = run_micro(scale, repeat=repeat)
    for r in results:
        print(f"  {r.name:<24} {r.per_sec:>12,.0f} {r.unit}/s "
              f"({r.n:,} in {r.wall_s:.3f}s)")
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        artifact = dump_micro(results, json_dir, scale.name, repeat)
        print(f"[wrote {artifact}]")
    return 0
