"""Command line: ``python -m repro.scenario <command> ...``.

* ``run FILE [--seeds N] [--jobs N] [--out FILE]`` — run a scenario
  file, print its SLO report, and with ``--out`` write the JSON artifact
  (byte-identical across serial / ``--jobs`` runs).
* ``compare BASE.json CAND.json [tolerance]`` — regression-diff two
  artifacts of the same scenario; exits 1 on divergence.
* ``validate FILE ...`` — load + validate scenario files without
  running them (the CI lint for checked-in scenarios).

A malformed option or argument exits 2 with one line on stderr.
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


class _UsageError(Exception):
    """A malformed command line: one stderr line, exit status 2."""


def _parsed(text, parse, flag, noun):
    """``parse(text)``, or a :class:`_UsageError` saying ``flag`` wants
    ``noun``."""
    try:
        return parse(text)
    except ValueError:
        raise _UsageError(f"{flag} must be {noun}, got {text!r}") from None


def _pop_option(argv, flag, parse=str, noun=None):
    """Remove ``flag VALUE`` from ``argv``; returns ``parse(VALUE)``."""
    if flag not in argv:
        return None
    idx = argv.index(flag)
    if idx + 1 == len(argv):
        raise _UsageError(f"{flag} requires an argument")
    text = argv[idx + 1]
    del argv[idx : idx + 2]
    return _parsed(text, parse, flag, noun)


def _run(argv) -> int:
    seeds = _pop_option(argv, "--seeds", int, "an integer")
    jobs = _pop_option(argv, "--jobs", int, "an integer")
    out = _pop_option(argv, "--out")
    if seeds is not None and seeds < 1:
        raise _UsageError(f"--seeds must be at least 1, got {seeds}")
    if len(argv) != 1:
        print("usage: run FILE [--seeds N] [--jobs N] [--out FILE]",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec(argv[0])
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = run_scenario(spec, seeds=seeds, jobs=jobs)
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
    tolerance = 0.05
    if len(argv) == 3:
        tolerance = _parsed(argv[2], float, "tolerance", "a number")
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
    handlers = {"run": _run, "compare": _compare, "validate": _validate}
    if command not in handlers:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        return handlers[command](rest)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
