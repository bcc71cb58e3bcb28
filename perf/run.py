"""Two-clock perf ledger for the Cudele reproduction.

    python3 perf/run.py                          # all workloads -> perf/out/result.json
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perf/run.py --sets 2                 # two sets of the same code, compared
    python3 perf/run.py compare A.json B.json

With ``--trace`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Metric names, units, directions and bounds live in ``BENCHMARK.json``;
what each means is in ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

#: Knobs of the program that would change what is measured.
SCRUBBED_ENV = ("REPRO_SHARDS", "REPRO_JOBS", "REPRO_SCALE")
#: The traced pass runs at this fraction of the timed pass's size.
TRACE_SCALE = 0.25
#: Same seed, same code => these must not move by a single bit.
DETERMINISTIC = ("events_per_op", "sim_ops_per_s", "sim_p99_ms")
MAX_REPEATS = 12


def load_benchmark() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, scale: float, mode: str) -> Dict:
    """One fresh child process; returns its record."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(PERF / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--mode", mode, "--t0", repr(time.time()),
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} child ({mode}) exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _checks(records: List[Dict]) -> Dict[str, bool]:
    """Output checks of every record, plus bit-equality of the
    deterministic results across them."""
    checks: Dict[str, bool] = {}
    for rec in records:
        for name, ok in rec["checks"].items():
            checks[name] = checks.get(name, True) and ok
    first = records[0]
    for key in ("ops", "failed", "sim_ops_per_s", "sim_p99_ms"):
        checks[f"{key}_bit_equal_across_repeats"] = all(
            rec[key] == first[key] for rec in records
        )
    return checks


# ---------------------------------------------------------------------------
# the two passes
# ---------------------------------------------------------------------------


def end_to_end(
    workload: str, seed: int, scale: float, seconds: float, repeats: int
) -> Dict:
    """Tracing off: one counting child (doubles as the warm-up), then
    timed children until ``seconds`` of timed region and ``repeats``
    runs are both reached."""
    count = spawn(workload, seed, scale, "count")
    runs: List[Dict] = []
    while len(runs) < MAX_REPEATS and (
        len(runs) < repeats or sum(r["host_s"] for r in runs) < seconds
    ):
        runs.append(spawn(workload, seed, scale, "timed"))
    per_repeat = {
        "host_ops_per_s": [r["ops"] / r["host_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
    }
    # The sandbox's speed drifts by tens of percent over minutes (noisy
    # neighbours) and interference only ever slows a run down, so the
    # fastest repeat is the steadiest estimate of what the code costs:
    # over 80 invocations its quartile spread was 3-13 %, the median
    # repeat's 5-17 %.  Scaling by a calibration loop run between the
    # repeats was tried and dropped: an arithmetic loop misses memory
    # contention, a pointer-chasing one over-corrects it (spread 27 %).
    metrics = {
        "host_ops_per_s": max(per_repeat["host_ops_per_s"]),
        "peak_rss_mb": statistics.median(per_repeat["peak_rss_mb"]),
        "setup_s": statistics.median(per_repeat["setup_s"]),
        "events_per_op": count["events"] / count["ops"],
        "sim_ops_per_s": runs[0]["sim_ops_per_s"],
        "sim_p99_ms": runs[0]["sim_p99_ms"],
    }
    checks = _checks(runs + [count])
    return {
        "metrics": metrics,
        "per_repeat": per_repeat,
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": runs[0]["ops"],
        "failed": runs[0]["failed"],
        "p99_n": runs[0]["p99_n"],
    }


def per_layer(workload: str, seed: int, scale: float, names: List[str]) -> Dict:
    """The traced pass: spans + direct calls, two profiled children (so
    call counts can be held bit-equal), one counting child, and for
    ``rpc_closed`` one child per attached instrumentation."""
    scale *= TRACE_SCALE
    plain = spawn(workload, seed, scale, "spans")
    profiles = [spawn(workload, seed, scale, "profile") for _ in range(2)]
    count = spawn(workload, seed, scale, "count")
    records = [plain, count] + profiles
    m = dict.fromkeys(names, 0.0)

    ops = plain["ops"]
    first = profiles[0]["profile"]
    for key in ("self_s", "module_s"):  # keyed by layer / by hot module
        for name in first[key]:
            m[f"{name}.self_share"] = statistics.mean(
                p["profile"][key][name] / p["profile"]["total_s"]
                for p in profiles
            )
    for layer, calls in first["calls"].items():
        m[f"{layer}.calls_per_op"] = calls / ops
    m["other.trace_overhead_ratio"] = (
        statistics.mean(p["host_s"] for p in profiles) / plain["host_s"]
    )

    tot = count["totals"]
    m["sim.host_events_per_s"] = count["events"] / plain["host_s"]
    m["sim.processes_per_op"] = tot["processes"] / ops
    m["sim.net_msgs_per_op"] = tot["net_msgs"] / ops
    m["sim.net_bytes_per_op"] = tot["net_bytes"] / ops
    m["mds.rpcs_per_op"] = tot["rpcs"] / ops
    m["mds.lookups_per_op"] = tot["lookups"] / ops
    m["mds.revocations"] = tot["revocations"]
    m["mds.cpu_util"] = tot["mds_busy_s"] / tot["sim_s"]
    m["mds.journal_segments"] = tot["journal_segments"]
    m["mds.journal_stalls"] = tot["journal_stalls"]
    m["rados.stored_bytes_per_op"] = tot["stored_bytes"] / ops
    m["rados.writes_per_op"] = tot["osd_writes"] / ops
    m["client.rpc_retries"] = tot["rpc_retries"]
    m["client.redirects"] = tot["redirects"]
    m.update(plain["layer"])

    if workload == "rpc_closed":
        obs = spawn(workload, seed, scale, "obs")
        rec = spawn(workload, seed, scale, "recorder")
        records += [obs, rec]
        m["obs.overhead_ratio"] = obs["host_s"] / plain["host_s"]
        m["conformance.recorder_overhead_ratio"] = (
            rec["host_s"] / plain["host_s"]
        )
        m.update(obs["layer"])
        m.update(rec["layer"])

    undeclared = sorted(set(m) - set(names))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    checks = _checks(records)
    checks["calls_per_op_bit_equal_across_repeats"] = (
        profiles[0]["profile"]["calls"] == profiles[1]["profile"]["calls"]
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{workload}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "scale": scale,
                    "spans": plain["spans"]}, indent=1) + "\n"
    )
    return {
        "metrics": m,
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": plain["ops"],
        "failed": plain["failed"],
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def with_units(metrics: Dict[str, float], declared: List[Dict]) -> Dict:
    units = {d["name"]: d["unit"] for d in declared}
    return {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }


def print_metrics(title: str, metrics: Dict, per_repeat: Optional[Dict] = None):
    print(f"-- {title}")
    for name, cell in metrics.items():
        line = f"   {name:44s} {cell['value']:>16.6g} {cell['unit']}"
        values = (per_repeat or {}).get(name)
        if values:
            line += f"   [{min(values):.6g} .. {max(values):.6g}] n={len(values)}"
        print(line)


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def ledger(args, bench: Dict, trace: bool) -> Dict:
    """Every selected workload, both passes; returns the result document."""
    layer_names = [d["name"] for d in bench["per_layer"]]
    doc = {
        "schema": "perf-ledger/v1",
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "workloads": {},
    }
    for spec in bench["workloads"]:
        name = spec["name"]
        if args.workload not in (None, name):
            continue
        e2e = end_to_end(name, args.seed, args.scale, args.seconds, args.repeats)
        entry = {
            "why": spec["why"],
            "correct": e2e["correct"],
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "p99_n": e2e["p99_n"],
            "checks": e2e["checks"],
            "end_to_end": with_units(e2e["metrics"], bench["end_to_end"]),
            "per_repeat": e2e["per_repeat"],
        }
        print(f"== {name}: {spec['why']}")
        print_metrics(
            f"end to end (p99 n={e2e['p99_n']}, "
            f"failed {e2e['failed']}/{e2e['attempted']})",
            entry["end_to_end"], e2e["per_repeat"],
        )
        if trace:
            layers = per_layer(name, args.seed, args.scale, layer_names)
            entry["per_layer"] = with_units(layers["metrics"], bench["per_layer"])
            entry["checks"].update(layers["checks"])
            entry["correct"] = entry["correct"] and layers["correct"]
            print_metrics(
                f"per layer (traced pass, {TRACE_SCALE:g}x size)",
                {k: v for k, v in entry["per_layer"].items() if v["value"]},
            )
        bad = sorted(k for k, ok in entry["checks"].items() if not ok)
        print(f"-- checks: {'all passed' if not bad else 'FAILED ' + str(bad)}")
        doc["workloads"][name] = entry
    return doc


def write_result(doc: Dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _own_spread(metric: str, values: List[float]) -> float:
    """How far a result's own repeats disagree about its value, as a
    share of it.  ``host_ops_per_s`` is the fastest repeat, and is as
    unsure as its two fastest repeats differ; the others are medians,
    and are as unsure as the repeats' quartiles are apart (min to max
    would call a median of six unresolved over one slow start-up)."""
    if len(values) < 2:
        return 0.0
    if metric == "host_ops_per_s":
        low, high = sorted(values)[-2:]
    else:
        low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(base: Dict, new: Dict, bench: Dict) -> int:
    """Per workload x end-to-end metric, apply the bound; returns the
    process exit code (1 on a regression or a higher fail share)."""
    regressions = 0
    same_seed = base["seed"] == new["seed"] and base["scale"] == new["scale"]
    print(f"{'workload':18s} {'metric':16s} {'base':>14s} {'new':>14s} "
          f"{'worse by':>9s} {'bound':>6s}  status")
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        for decl in bench["end_to_end"]:
            metric, bound = decl["name"], decl["bound"]
            bv = b["end_to_end"][metric]["value"]
            nv = n["end_to_end"][metric]["value"]
            worse = (nv - bv) / bv if decl["better"] == "lower" else (bv - nv) / bv
            spread = _own_spread(metric, b["per_repeat"].get(metric, [bv]))
            if spread > bound:
                status = f"unresolved (base spread {spread:.1%})"
            elif worse > bound:
                status = "REGRESSION"
                regressions += 1
            elif worse < -bound:
                status = "improved"
            else:
                status = "unchanged"
            if same_seed and metric in DETERMINISTIC:
                status += ", exact" if nv == bv else ", MOVED (deterministic)"
            print(f"{name:18s} {metric:16s} {bv:14.6g} {nv:14.6g} "
                  f"{worse:+9.2%} {bound:6.0%}  {status}")
        b_fail = b["failed"] / b["attempted"]
        n_fail = n["failed"] / n["attempted"]
        if n_fail > b_fail or not n["correct"]:
            regressions += 1
            print(f"{name:18s} fail share {b_fail:.6g} -> {n_fail:.6g}, "
                  f"correct={n['correct']}  REGRESSION")
    print("regressions:", regressions)
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("command", nargs="?", choices=["compare"])
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one workload, one pass, JSON on the last line")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare needs two result files")
        base, new = (json.loads(Path(f).read_text()) for f in args.files)
        return compare(base, new, bench)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; have {workloads}")
    if args.scale <= 0 or not math.isfinite(args.scale):
        parser.error("--scale must be positive")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if hasattr(os, "sched_setaffinity"):
        # One process, one thread: pin to one core (the children inherit
        # it from birth) so the scheduler cannot move a run mid-measurement.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.trace:
            names = [d["name"] for d in bench["per_layer"]]
            result = per_layer(args.workload, args.seed, args.scale, names)
            declared = bench["per_layer"]
        else:
            result = end_to_end(
                args.workload, args.seed, args.scale, args.seconds, args.repeats
            )
            declared = bench["end_to_end"]
        for name, values in result.get("per_repeat", {}).items():
            print(f"repeats {name}: {json.dumps(values)}")
        for check, ok in sorted(result["checks"].items()):
            print(f"check {check}: {'ok' if ok else 'FAILED'}")
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": with_units(result["metrics"], declared),
        }))
        return 0 if result["correct"] else 1

    docs = []
    for k in range(args.sets):
        if args.sets > 1:
            print(f"#### set {k + 1} of {args.sets}")
        # Only the first set pays for the traced pass: compare reads the
        # end-to-end metrics alone.
        doc = ledger(args, bench, trace=(k == 0))
        path = args.out if k == 0 else args.out.with_suffix(f".set{k + 1}.json")
        write_result(doc, path)
        docs.append(doc)
    code = 0 if all(
        w["correct"] for doc in docs for w in doc["workloads"].values()
    ) else 1
    for base, new in zip(docs, docs[1:]):
        code = max(code, compare(base, new, bench))
    return code


if __name__ == "__main__":
    sys.exit(main())
