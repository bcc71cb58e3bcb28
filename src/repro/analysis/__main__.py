"""Command-line entry: ``python -m repro.analysis``.

Usage::

    python -m repro.analysis [lint] [--rules a,b] [--stats] \\
        [--json | --format github] PATH...
    python -m repro.analysis check [--json | --format github] \\
        --composition "a+b||c" ...
    python -m repro.analysis model [--cell C,D]... [--depth N] \\
        [--budget M] [--mutation NAME] [--out FILE] [--json]
    python -m repro.analysis rules

``lint`` (the default when the first argument is a path) runs simlint
and exits 0 only when every finding is fixed or suppressed; ``check``
runs the runtime's composition gate (``repro.core.policy.check_plan``)
and lists advisory pairings as warnings that do not fail it; ``model``
runs the explicit-state model checker over Table I cells (exit 1 on
any counterexample — which is the *expected* outcome under
``--mutation``); ``rules`` prints the rule catalog.  ``--json`` emits
machine-readable output and ``--format github`` emits workflow
``::error`` annotations.  Exit codes: 0 clean, 1 findings/errors,
2 usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.rules import rule_catalog
from repro.analysis.simlint import LintReport, lint_paths
from repro.core.policy import check_plan, composition_warnings

USAGE = __doc__ or ""


def _github_escape(text: str) -> str:
    """Escape a message for a workflow-command annotation value."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def lint_json(report: LintReport) -> str:
    """Machine-readable lint output (one JSON document)."""
    doc = {
        "ok": report.ok,
        "files_checked": report.files_checked,
        "findings": [
            {"path": f.path, "line": f.line, "col": f.col,
             "rule": f.rule, "message": f.message}
            for f in report.findings
        ],
        "suppressed": len(report.suppressed),
        "suppressions": report.suppression_counts,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def lint_github(report: LintReport) -> str:
    """GitHub workflow ``::error`` annotations, one per finding."""
    lines = [
        f"::error file={f.path},line={f.line},col={f.col},"
        f"title=simlint {f.rule}::{_github_escape(f.message)}"
        for f in report.findings
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_format(argv: List[str]) -> Optional[str]:
    """Pop ``--json`` / ``--format X`` from ``argv``; returns the format.

    Mutates ``argv`` in place; returns ``"text"`` (default), ``"json"``
    or ``"github"``, or None on a usage error (already reported).
    """
    fmt = "text"
    i = 0
    while i < len(argv):
        if argv[i] == "--json":
            fmt = "json"
            del argv[i]
        elif argv[i] == "--format":
            if i + 1 >= len(argv):
                print("--format requires a value (text|json|github)",
                      file=sys.stderr)
                return None
            fmt = argv[i + 1]
            if fmt not in ("text", "json", "github"):
                print(f"unknown format {fmt!r} (want text|json|github)",
                      file=sys.stderr)
                return None
            del argv[i:i + 2]
        else:
            i += 1
    return fmt


def _lint(argv: List[str]) -> int:
    argv = list(argv)
    fmt = _parse_format(argv)
    if fmt is None:
        return 2
    rules: Optional[List[str]] = None
    show_stats = False
    paths: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--rules":
            spec = next(it, None)
            if spec is None:
                print("--rules requires a comma-separated list", file=sys.stderr)
                return 2
            rules = [r.strip() for r in spec.split(",") if r.strip()]
        elif arg == "--stats":
            show_stats = True
        elif arg.startswith("-"):
            print(f"unknown lint option {arg!r}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print("lint requires at least one file or directory", file=sys.stderr)
        return 2
    try:
        report = lint_paths(paths, rules=rules)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if fmt == "json":
        sys.stdout.write(lint_json(report))
    elif fmt == "github":
        sys.stdout.write(lint_github(report))
    else:
        print(report.render())
        if show_stats:
            for where, count in sorted(report.suppression_counts.items()):
                print(f"suppression {where}: waived {count} finding(s)")
    return 0 if report.ok else 1


def _check(argv: List[str]) -> int:
    argv = list(argv)
    fmt = _parse_format(argv)
    if fmt is None:
        return 2
    compositions: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--composition":
            value = next(it, None)
            if value is None:
                print("--composition requires an expression", file=sys.stderr)
                return 2
            compositions.append(value)
        else:
            print(f"unknown check argument {arg!r}", file=sys.stderr)
            return 2
    if not compositions:
        print("check requires --composition", file=sys.stderr)
        return 2
    results: List[Dict] = []
    for text in compositions:
        errors = check_plan(text)
        parsed = not any(err.code == "parse-error" for err in errors)
        results.append({
            "kind": "composition", "target": text,
            "ok": not errors,
            "errors": [err.render() for err in errors],
            "warnings": composition_warnings(text) if parsed else [],
        })
    failed = any(not r["ok"] for r in results)
    if fmt == "json":
        doc = {"ok": not failed, "results": results}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif fmt == "github":
        for r in results:
            for err in r["errors"]:
                sys.stdout.write(
                    "::error title=repro.analysis check::"
                    f"{_github_escape(err)}\n"
                )
    else:
        for r in results:
            label = f"composition {r['target']!r}"
            if r["ok"]:
                print(f"{label}: ok")
            for err in r["errors"]:
                print(f"{label}: {err}")
            for warning in r["warnings"]:
                print(f"{label}: warning: {warning}")
    return 1 if failed else 0


def _model(argv: List[str]) -> int:
    from repro.analysis.model import (
        MAX_DEPTH, MUTATIONS, explore_matrix, model_report_json,
    )
    from repro.conformance.driver import CELLS, CONSISTENCIES, DURABILITIES

    cells: List = []
    depth = 4
    budget = 400
    mutation = None
    out_path: Optional[str] = None
    as_json = False
    it = iter(argv)
    for arg in it:
        if arg == "--cell":
            value = next(it, None)
            if value is None or "," not in value:
                print("--cell requires CONSISTENCY,DURABILITY", file=sys.stderr)
                return 2
            c, d = (p.strip() for p in value.split(",", 1))
            if c not in CONSISTENCIES or d not in DURABILITIES:
                print(
                    f"unknown cell {value!r}; consistencies: "
                    f"{CONSISTENCIES}, durabilities: {DURABILITIES}",
                    file=sys.stderr,
                )
                return 2
            cells.append((c, d))
        elif arg in ("--depth", "--budget"):
            value = next(it, None)
            top = MAX_DEPTH if arg == "--depth" else sys.maxsize
            if value is None or not value.isdigit() \
                    or not 1 <= int(value) <= top:
                want = (f"an integer in 1..{MAX_DEPTH}" if arg == "--depth"
                        else "a positive integer")
                print(f"{arg} requires {want}", file=sys.stderr)
                return 2
            if arg == "--depth":
                depth = int(value)
            else:
                budget = int(value)
        elif arg == "--mutation":
            value = next(it, None)
            if value is None or value not in MUTATIONS:
                print(
                    f"--mutation requires one of {sorted(MUTATIONS)}",
                    file=sys.stderr,
                )
                return 2
            mutation = MUTATIONS[value]
        elif arg == "--out":
            out_path = next(it, None)
            if out_path is None:
                print("--out requires a file path", file=sys.stderr)
                return 2
        elif arg == "--json":
            as_json = True
        else:
            print(f"unknown model option {arg!r}", file=sys.stderr)
            return 2
    report = explore_matrix(
        cells or CELLS, depth=depth, budget=budget,
        mutation=mutation,
    )
    text = model_report_json(report)
    if out_path is not None:
        Path(out_path).write_text(text)
    if as_json:
        sys.stdout.write(text)
    else:
        for cell in report["cells"]:
            status = "ok" if cell["ok"] else "VIOLATION"
            tail = "exhausted" if cell["exhausted"] else "budget-capped"
            print(
                f"{cell['cell']}: {status} runs={cell['runs']} "
                f"states={cell['distinct_states']} "
                f"({tail})"
            )
            ce = cell["counterexample"]
            if ce is not None:
                print(f"  minimal counterexample "
                      f"(variant {ce['variant']}, "
                      f"schedule {ce['schedule']}):")
                for block in ce["decisions"]:
                    for line in block.splitlines():
                        print(f"    {line}")
                for v in ce["violations"]:
                    print(f"    {v['code']}: {v['message']}")
        verdict = "OK" if report["ok"] else "VIOLATION"
        extra = f" [mutation: {report['mutation']}]" if report["mutation"] \
            else ""
        print(f"model: {verdict} ({len(report['cells'])} cell(s), "
              f"depth {depth}){extra}")
    return 0 if report["ok"] else 1


def _rules() -> int:
    for rule_id, summary in rule_catalog().items():
        print(f"{rule_id}: {summary}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE.strip())
        return 0 if argv else 2
    cmd, rest = argv[0], argv[1:]
    if cmd == "lint":
        return _lint(rest)
    if cmd == "check":
        return _check(rest)
    if cmd == "model":
        return _model(rest)
    if cmd == "rules":
        return _rules()
    # Default: treat every argument as a lint target/option.
    return _lint(argv)


if __name__ == "__main__":
    raise SystemExit(main())
