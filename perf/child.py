"""One run of one workload, in a process of its own.

``run.py`` starts this once per repeat so import cost and ``ru_maxrss``
are per-run.  The last line of standard output is one JSON object.

Modes:

``timed``     nothing attached — the only mode whose host time is reported
              as an end-to-end metric;
``count``     engine events counted through ``engine.trace`` and public
              daemon counters summed (never timed: the hook suppresses
              timeout pooling);
``profile``   the timed region under ``cProfile``, bucketed by layer;
``spans``     driver-level spans on, then direct calls into single layers
              on the workload's own data;
``obs`` / ``recorder``
              ``rpc_closed`` with that instrumentation attached.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from typing import Dict, Optional

from layers import ClusterCounters, NullSpans, SpanLog, bucket_profile
from workloads import WORKLOADS

MODES = ("timed", "count", "profile", "spans", "obs", "recorder")


def _rate(n: int, fn) -> float:
    t = time.perf_counter()
    fn()
    return n / (time.perf_counter() - t)


def _micro_decoupled(w, seed: int, spans: SpanLog) -> Dict[str, float]:
    from repro.journal.format import JournalCodec

    events = list(w.namespaces[0].dclient.journal.events)
    blob = JournalCodec.encode_stream(events)
    scan = JournalCodec.scan_stream(blob)
    if len(scan.events) != len(events):
        raise AssertionError("journal scan lost events")
    return {
        "journal.encode_events_per_s": _rate(
            len(events), lambda: JournalCodec.encode_stream(events)
        ),
        "journal.scan_events_per_s": _rate(
            len(events), lambda: JournalCodec.scan_stream(blob)
        ),
        "journal.bytes_per_event": len(blob) / len(events),
        "client.append_host_s": spans.seconds("client.append"),
        "core.local_persist_host_s": spans.seconds("core.local_persist"),
        "core.global_persist_host_s": spans.seconds("core.global_persist"),
        "journal.recover_host_s": spans.seconds("journal.recover"),
        "core.merge_host_s": spans.seconds("core.merge"),
    }


def _micro_verify(w, seed: int, spans: SpanLog) -> Dict[str, float]:
    from repro.conformance.checkers import check_history
    from repro.conformance.driver import SUBTREE
    from repro.conformance.history import History

    # reports come in threes: matrix, migrate drill, corruption drill.
    cells = [
        (History.from_canonical(text), *key.split("/"))
        for rep in w.reports[0::3]
        for key, text in rep["histories"].items()
    ]

    def check_all():
        for history, consistency, durability in cells:
            check_history(history, consistency, durability, subtree=SUBTREE)

    return {
        "conformance.check_events_per_s": _rate(
            sum(len(h) for h, _c, _d in cells), check_all
        ),
        "analysis.model_runs_per_s": (
            w.model_runs / spans.seconds("analysis.explore_matrix")
        ),
    }


def _micro_openloop(w, seed: int, spans: SpanLog) -> Dict[str, float]:
    from repro.obs.metrics import Histogram
    from repro.scenario.population import PopulationModel
    from repro.scenario.spec import ScenarioSpec
    from repro.sim.rng import RngStream

    model = PopulationModel(ScenarioSpec.from_dict(w.specs[-1]))
    rng = RngStream(seed, "perf").child("arrivals")
    t = time.perf_counter()
    arrivals = sum(1 for _ in model.arrivals(rng))
    arrivals_per_s = arrivals / (time.perf_counter() - t)
    hist = Histogram("perf")
    values = [1e-4 * (1 + i % 997) for i in range(100_000)]

    def observe():
        for v in values:
            hist.observe(v)

    return {
        "scenario.arrivals_per_s": arrivals_per_s,
        "obs.observe_per_s": _rate(len(values), observe),
    }


MICRO = {
    "decoupled_merge": _micro_decoupled,
    "verify_sweep": _micro_verify,
    "openloop_ladder": _micro_openloop,
}


def run_once(
    workload: str, seed: int, scale: float, mode: str,
    t0: Optional[float] = None,
) -> Dict:
    """Set up, run and check one workload; returns the raw record."""
    if t0 is None:
        t0 = time.time()
    spans = SpanLog(workload) if mode == "spans" else NullSpans()
    counters = ClusterCounters().install() if mode == "count" else None
    profiler = cProfile.Profile() if mode == "profile" else None
    try:
        kwargs = {"instrument": mode} if mode in ("obs", "recorder") else {}
        w = WORKLOADS[workload](seed, scale, spans, **kwargs)
        setup_s = time.time() - t0
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        w.run()
        if profiler is not None:
            profiler.disable()
        host_s = time.perf_counter() - started
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if counters is not None:
            counters.uninstall()
    record = w.result()
    record.update(
        workload=workload, seed=seed, scale=scale, mode=mode,
        host_s=host_s, setup_s=setup_s, peak_rss_mb=peak_rss_kb / 1024,
    )
    if counters is not None:
        record["events"] = counters.events
        record["totals"] = counters.totals()
    if profiler is not None:
        record["profile"] = bucket_profile(profiler.getstats())
    if mode == "spans":
        if workload in MICRO:
            record["layer"].update(MICRO[workload](w, seed, spans))
        record["spans"] = [
            {**s, "start": s["start"] - started, "end": s["end"] - started}
            for s in spans.spans
        ]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, args.scale, args.mode, args.t0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
