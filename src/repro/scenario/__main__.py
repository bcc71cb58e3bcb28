"""Command line: ``python -m repro.scenario <command> ...``.

* ``run FILE [--seeds N] [--jobs N] [--out FILE]`` — run a scenario
  file, print its SLO report, and with ``--out`` write the JSON artifact
  (byte-identical across serial / ``--jobs`` runs).
* ``compare BASE.json CAND.json [tolerance]`` — regression-diff two
  artifacts of the same scenario; exits 1 on divergence.
* ``validate FILE ...`` — load + validate scenario files without
  running them (the CI lint for checked-in scenarios).
"""

from __future__ import annotations

import sys

from repro.scenario.report import (
    compare_files,
    dump_artifact,
    format_report,
)
from repro.scenario.runner import run_scenario
from repro.scenario.spec import ScenarioError, load_spec


def _pop_option(argv, flag):
    if flag not in argv:
        return None
    idx = argv.index(flag)
    try:
        value = argv[idx + 1]
    except IndexError:
        raise SystemExit(f"{flag} requires an argument")
    del argv[idx : idx + 2]
    return value


def _run(argv) -> int:
    seeds = _pop_option(argv, "--seeds")
    jobs = _pop_option(argv, "--jobs")
    out = _pop_option(argv, "--out")
    if len(argv) != 1:
        print("usage: run FILE [--seeds N] [--jobs N] [--out FILE]",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec(argv[0])
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = run_scenario(
        spec,
        seeds=int(seeds) if seeds is not None else None,
        jobs=int(jobs) if jobs is not None else None,
    )
    print(format_report(artifact))
    if out is not None:
        dump_artifact(artifact, out)
        print(f"artifact: {out}")
    return 0


def _compare(argv) -> int:
    if len(argv) not in (2, 3):
        print("usage: compare BASE.json CAND.json [tolerance]",
              file=sys.stderr)
        return 2
    tolerance = float(argv[2]) if len(argv) == 3 else 0.05
    try:
        report = compare_files(argv[0], argv[1], tolerance)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0 if report.ok else 1


def _validate(argv) -> int:
    if not argv:
        print("usage: validate FILE ...", file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        try:
            spec = load_spec(path)
        except (OSError, ScenarioError) as exc:
            print(f"{path}: INVALID: {exc}")
            status = 1
            continue
        print(f"{path}: ok ({spec.name}: {spec.population.users:,} users, "
              f"{len(spec.subtrees)} subtree(s))")
    return status


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "run":
        return _run(rest)
    if command == "compare":
        return _compare(rest)
    if command == "validate":
        return _validate(rest)
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
