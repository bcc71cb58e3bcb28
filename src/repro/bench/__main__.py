"""Command-line entry: ``python -m repro.bench [options] [experiment ...]``.

Runs the named experiments (default: all) at the scale selected by
``REPRO_SCALE`` (tiny | small | paper), prints paper-style tables, and
with ``--json DIR`` also writes one JSON artifact per experiment plus a
``BENCH_wallclock.json`` record of host wall time per experiment (kept
out of the experiment artifacts so serial and ``--jobs N`` runs stay
byte-identical).

``--jobs N`` fans seeded runs out over a process pool (see
``repro.bench.harness.parallel_map``); output is identical to serial.

``--obs`` additionally runs the instrumented observability probe
(``repro.obs.probe``) and writes ``OBS_report.json`` /
``OBS_breakdown.csv`` next to the experiment artifacts.  The
experiments themselves always run uninstrumented, so every ``BENCH_*``
artifact is byte-identical with and without the flag (test-enforced).

Subcommand: ``compare BASE.json CAND.json [tolerance]`` —
regression-diff two experiment artifacts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import set_default_jobs
from repro.bench.report import dump_json, format_result
from repro.bench.scales import get_scale

WALLCLOCK_ARTIFACT = "BENCH_wallclock.json"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    json_dir = None
    if "--json" in argv:
        idx = argv.index("--json")
        try:
            json_dir = Path(argv[idx + 1])
        except IndexError:
            print("--json requires a directory argument", file=sys.stderr)
            return 2
        del argv[idx : idx + 2]
    jobs = None
    if "--jobs" in argv:
        idx = argv.index("--jobs")
        try:
            jobs = int(argv[idx + 1])
        except (IndexError, ValueError):
            print("--jobs requires an integer argument", file=sys.stderr)
            return 2
        del argv[idx : idx + 2]
    with_obs = "--obs" in argv
    if with_obs:
        argv.remove("--obs")
    names = argv or list(ALL_EXPERIMENTS)
    # Validate before touching the filesystem: a typo'd experiment name
    # or scale must not leave an empty --json directory behind.
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    try:
        scale = get_scale()
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
    if jobs is not None:
        set_default_jobs(jobs)
    print(f"scale preset: {scale.name} "
          f"(ops/client={scale.ops_per_client}, seeds={scale.seeds})\n")
    wallclock = {}
    for name in names:
        # simlint: ignore[wall-clock] host-side bench driver timing the simulator itself
        start = time.time()
        result = ALL_EXPERIMENTS[name](scale)
        print(format_result(result))
        if json_dir is not None:
            artifact = dump_json(result, json_dir)
            print(f"[wrote {artifact}]")
        # simlint: ignore[wall-clock] host-side bench driver timing the simulator itself
        wallclock[name] = round(time.time() - start, 3)
        print(f"[{name} took {wallclock[name]:.1f}s wall]\n")
    if json_dir is not None:
        record = json_dir / WALLCLOCK_ARTIFACT
        record.write_text(json.dumps(
            {"scale": scale.name, "jobs": jobs, "wall_s": wallclock},
            indent=2,
        ))
        print(f"[wrote {record}]")
    if with_obs:
        _run_obs_probe(json_dir, scale)
    return 0


def _run_obs_probe(json_dir, scale) -> None:
    """The ``--obs`` leg: an instrumented probe beside the experiments.

    Kept out of the experiments so BENCH_* artifacts stay byte-identical
    whether or not observability was requested.
    """
    from repro.obs.__main__ import write_report_artifacts
    from repro.obs.probe import probe_report
    from repro.obs.report import format_breakdown

    report = probe_report(meta={"source": "bench-probe", "scale": scale.name})
    print("observability probe — per-mechanism latency breakdown:")
    print(format_breakdown(report["breakdown"]))
    if json_dir is not None:
        for path in write_report_artifacts(report, str(json_dir)):
            print(f"[wrote {path}]")


def _compare(args) -> int:
    """``python -m repro.bench compare BASE.json CAND.json [TOLERANCE]``"""
    from repro.bench.compare import compare_files

    if len(args) not in (2, 3):
        print("usage: python -m repro.bench compare BASE.json CAND.json "
              "[tolerance]", file=sys.stderr)
        return 2
    try:
        tolerance = float(args[2]) if len(args) == 3 else 0.05
    except ValueError:
        print(f"compare: tolerance must be a number, got {args[2]!r}",
              file=sys.stderr)
        return 2
    try:
        report = compare_files(args[0], args[1], tolerance)
    except FileNotFoundError as exc:
        print(f"compare: missing artifact: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"compare: malformed artifact (not JSON): {exc}",
              file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"compare: malformed or mismatched artifact: {exc!r}",
              file=sys.stderr)
        return 2
    print(report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
