"""Function-level call census: the code in ``src/repro`` that only tests reach.

Run from the repo root (Python 3.11+, stdlib only; tier-1 needs its own
test dependencies)::

    PYTHONPATH=src python tests/analysis/call_census.py            # summary
    PYTHONPATH=src python tests/analysis/call_census.py --check    # CI gate
    PYTHONPATH=src python tests/analysis/call_census.py --out census.json

Every function, method and nested ``def`` in ``src/repro`` is keyed by
``<module>:<co_qualname>`` (lambdas and comprehensions count as part of
the function that holds them).  One process runs two passes under a
``sys.settrace`` call hook, which sees every frame started in this
process and none in a subprocess or worker pool:

1. **production** — the entry points the repo ships and CI drives, each
   in-process and serial (``PRODUCTION`` below lists them);
2. **tier-1** — ``pytest.main`` over ``tests/``.

The production pass runs first, so code that runs at import time counts
as production.  A function is *production* when pass 1 reached it,
*test-only* when only pass 2 did and *never run* when neither did.

``KEEP`` gives each test-only or never-run function that stays a
one-line reason.  A key names one function, or every function under a
class, module or function prefix (``repro.bench.paper`` covers the
module; ``repro.mds.server:MetadataServer.checkpoint`` also covers its
nested defs).  ``--check`` exits 1 when a test-only or never-run
function has no reason, when a reason covers nothing that is test-only
or never run (its code is gone, or production reaches it now), or when
one reason's key lies under another's — so removing any one reason
fails the check.  To keep a function, add a key and a reason; to settle
an entry for good, wire it into a production path or delete it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, List
from unittest import mock

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

_POSIX = ("the rest of POSIX: ROADMAP item 2 makes the conformance burst "
          "and the model checker issue and judge rename / rmdir / setattr")
_CHECKPOINT = ("the MDS checkpoint image (§II-A); ROADMAP item 13 (b) wires "
               "checkpoint_every_segments into the drills")
_READ_WHILE_WRITE = ("open-for-write / close of read-while-writing "
                     "(`read_lazy`, Fig. 1's HDFS subtree); no shipped "
                     "driver opens a file for writing")
_CRASH = "crash / recovery path the fault matrices in tests/faults reach"
_SENDER_INTERRUPT = ("interrupt of a process waiting on a network "
                     "transfer or reply; the one process src/ interrupts, "
                     "the MDS serve loop, never waits on one")
_PARTITION = ("network partition faults; FaultPlan accepts them, no "
              "shipped drill partitions the network")
_DEBUG_REPR = "debug repr"


def _query(what: str) -> str:
    return f"{what}: a state query the tests assert through"


#: Why each test-only or never-run function stays (see the module
#: docstring for the key syntax).
KEEP: Dict[str, str] = {
    # -- CLI verbs and formats the production pass does not drive
    "repro.analysis.__main__": (
        "the `rules` verb and the `--json` / `--format github` output of "
        "lint and check (CI prints annotations only on failure)"),
    "repro.analysis.rules:rule_catalog": "the `rules` verb",
    "repro.analysis.findings:Finding.render": (
        "renders a lint finding; src/ lints clean, so only the rule "
        "tests produce one"),
    "repro.core.policy:CompositionError": (
        "the composition gate's rejection in Cudele.decouple / retarget; "
        "no shipped driver installs a composition check_plan rejects"),
    "repro.bench.compare:Divergence": (
        "renders a divergence; the census compares an artifact with itself"),
    "repro.bench.harness:set_default_jobs": (
        "`--jobs N`; the census runs serially so the hook sees every seed"),
    "repro.bench.harness:ExperimentResult.get": (
        "the claims and anchors in repro.bench.paper read series through it"),
    "repro.bench.harness:Series": (
        "point lookups the claims and anchors in repro.bench.paper read "
        "figure values through"),
    "repro.bench.paper": (
        "the paper's anchors and each figure's shape claims: tier-1 judges "
        "the tiny goldens with them, benchmarks/ a run at REPRO_SCALE, and "
        "tests/bench/regen_golden.py renders EXPERIMENTS.md from them"),
    "repro.conformance.checkers:verdict_json": (
        "writes golden verdicts (tests/conformance/regen_golden.py)"),
    "repro.conformance.history:History.load": (
        "reads golden histories (tests/conformance/regen_golden.py)"),
    # -- the rest of POSIX (ROADMAP item 2) and read-while-writing
    "repro.client.client:Client.rename": _POSIX,
    "repro.client.client:Client.rmdir": _POSIX,
    "repro.client.client:Client.setattr": _POSIX,
    "repro.client.decoupled:DecoupledClient.rename": _POSIX,
    "repro.mds.mdstore:MetadataStore.rename": _POSIX,
    "repro.mds.mdstore:MetadataStore.rmdir": _POSIX,
    "repro.mds.mdstore:MetadataStore.setattr": _POSIX,
    "repro.mds.server:MetadataServer._op_rename": _POSIX,
    "repro.mds.server:MetadataServer._op_setattr": _POSIX,
    "repro.conformance.model:ReferenceModel": _POSIX,
    "repro.conformance.model:ModelNode.is_file": _POSIX,
    "repro.client.client:Client.close_write": _READ_WHILE_WRITE,
    "repro.mds.server:MetadataServer._op_close_write": _READ_WHILE_WRITE,
    "repro.mds.server:MetadataServer._recall_writer": _READ_WHILE_WRITE,
    # -- the checkpoint image (ROADMAP item 13 (b))
    "repro.mds.server:MetadataServer.checkpoint": _CHECKPOINT,
    "repro.mds.server:MetadataServer._auto_checkpoint": _CHECKPOINT,
    "repro.mds.server:MetadataServer._maybe_auto_checkpoint": _CHECKPOINT,
    "repro.mds.mdstore:MetadataStore.encode_image": _CHECKPOINT,
    "repro.mds.mdstore:MetadataStore.decode_image": _CHECKPOINT,
    "repro.mds.inode:DirFragment.serialized_bytes": _CHECKPOINT,
    "repro.mds.journal:MDSJournal.last_seq": _CHECKPOINT,
    "repro.mds.inotable:InoTable.skip_to": _CHECKPOINT,
    # -- crash, abort and fault paths
    "repro.mds.migrate:migrate_subtree.<locals>._abort": _CRASH,
    "repro.mds.migrate:migrate_subtree.<locals>._reinstall_src": _CRASH,
    "repro.conformance.checkers:_commits_next": _CRASH,
    "repro.rados.osd:OSD.crash": _CRASH,
    "repro.rados.osd:OSD.fail": _CRASH,
    "repro.rados.osd:OSD.recover": _CRASH,
    "repro.sim.engine:_HostProcess.fail": (
        "a host-driven body that raises; shipped drivers do not"),
    "repro.sim.engine:Event._abandon": (
        "interrupt of a process parked on an event (the crash paths)"),
    "repro.sim.resources:SlotGrant._abandon": (
        "interrupt of a process waiting for a slot (the crash paths)"),
    "repro.sim.network:Transfer._abandon": _SENDER_INTERRUPT,
    "repro.sim.network:Reply._abandon": _SENDER_INTERRUPT,
    "repro.sim.network:Link._give_back": _SENDER_INTERRUPT,
    "repro.sim.network:Link._retime": (
        "re-times a link's queue after an interrupt, a withdrawn reply "
        "or an out-of-order issue; no shipped run makes any of them"),
    "repro.sim.network:Link._insert": (
        "a reply issued ahead of one its link already holds: one client "
        "with two requests in flight whose issue instants invert the "
        "serve order, which no shipped driver makes"),
    "repro.sim.network:Network._unissue": (
        "takes back a reply not yet issued, for a reply timer or a "
        "partition / heal before its issue instant; no shipped driver "
        "sets the one or partitions the network"),
    "repro.sim.network:Reply.withdraw": (
        "a reply timer firing (RetryPolicy.reply_timeout_s), which no "
        "shipped driver sets"),
    "repro.faults.injector:FaultInjector.inject": (
        "runs one fault inline so a test interleaves faults with its "
        "own steps; the drills schedule whole plans"),
    "repro.faults.injector:FaultInjector.report": (
        "the canonical fault-log + counters record the determinism "
        "tests diff (docs/FAULTS.md)"),
    "repro.sim.stats:StatsRegistry.render": (
        "FaultInjector.report's per-component counter lines"),
    "repro.sim.stats:StatsRegistry.snapshot": (
        "FaultInjector.report's per-component counter lines"),
    "repro.faults.plan:FaultPlan.random": (
        "the seeded random plan the Hypothesis fault machines draw"),
    "repro.sim.rng:RngStream.choice": "FaultPlan.random's target pick",
    "repro.faults.plan:Fault.describe": (
        "one-line plan rendering for failure messages"),
    "repro.faults.plan:FaultPlan.describe": (
        "one-line plan rendering for failure messages"),
    "repro.faults.plan:FaultPlan.partition": _PARTITION,
    "repro.faults.plan:FaultPlan.heal": _PARTITION,
    "repro.sim.network:Network.partition": _PARTITION,
    "repro.sim.network:Network.heal": _PARTITION,
    "repro.sim.network:Network.is_partitioned": _PARTITION,
    "repro.client.decoupled:DecoupledClient._range_exhausted": (
        "error: the Allocated Inodes contract was undersized"),
    "repro.journal.format:_unencodable": (
        "error: a field does not fit the wire format (typed "
        "JournalFormatError)"),
    "repro.sim.engine:Timeout.cancel": (
        "disarms a client's reply timer (RetryPolicy.reply_timeout_s), "
        "which no shipped driver sets"),
    "repro.sim.engine:Engine._unschedule": "Timeout.cancel's heap removal",
    # -- policy features no shipped scenario or example selects
    "repro.core.namespace_api:Cudele._place": (
        "the policy `mds_rank` placement hint"),
    "repro.mds.migrate:MigrationResult.ok": (
        "Cudele._place's check on the placement migration"),
    "repro.sim.disk:NVRam": (
        "persist_backend='nvram' (DurableFS-style NVRAM, PAPERS.md)"),
    "repro.core.namespace_api:Cudele.recouple": (
        "the namespace API's recouple (policy removed, inodes released)"),
    "repro.mon.monitor:Monitor.clear_subtree": "Cudele.recouple's unassign",
    "repro.mds.inotable:InoTable.release_unused": (
        "Cudele.recouple's inode release"),
    "repro.core.namespace_api:Cudele.policy_of": (
        "the namespace API's policy lookup"),
    "repro.core.semantics:Durability.__lt__": (
        "orders durability when retarget strengthens it; shipped "
        "retargets change consistency"),
    # -- kernel API
    "repro.sim.engine:Engine.step": "kernel API: single-step dispatch",
    "repro.sim.engine:Engine.peek": "kernel API: next event time",
    "repro.sim.engine:Engine._schedule": (
        "kernel API: a priority other than the default"),
    "repro.sim.engine:Engine.timeout": "kernel API: Timeout factory",
    "repro.sim.engine:Engine.any_of": "kernel API: AnyOf factory",
    "repro.sim.engine:AnyOf": (
        "kernel API: first-of join (a reply raced against its timer)"),
    "repro.sim.engine:Event.processed": "kernel API: event state",
    "repro.sim.rng:RngStream.normal": "RNG API: normal draw",
    "repro.sim.stats:UtilizationTracker.add": (
        "relative form of set_level"),
    "repro.obs.core:Observability.__enter__": (
        "context-manager form of attach / detach"),
    "repro.obs.core:Observability.__exit__": (
        "context-manager form of attach / detach"),
    "repro.obs.metrics:Gauge": "the hub's gauge metric kind",
    "repro.obs.metrics:MetricsHub.gauge": "the hub's gauge metric kind",
    "repro.obs.metrics:MetricsHub.get": (
        "metric lookup the obs tests read values through"),
    # -- state queries the tests observe through
    "repro.cluster:Cluster.num_mds": _query("rank count"),
    "repro.conformance.history:History.of_kind": _query("history filter"),
    "repro.core.dsl:CompositionPlan.canonical": _query("plan spelling"),
    "repro.faults.plan:FaultPlan.__len__": _query("fault count"),
    "repro.journal.events:JournalEvent.name": _query("final path component"),
    "repro.journal.events:JournalEvent.parent_path": _query("parent path"),
    "repro.journal.format:JournalScan.ok": _query("scan verdict"),
    "repro.mds.caps:CapTracker": _query(
        "directory cap holder / state / tracked-directory count"),
    "repro.mds.inode:DirFragment.__len__": _query("fragment size"),
    "repro.mds.inotable:InoRange.__contains__": _query("range membership"),
    "repro.mds.inotable:InoTable.mark_consumed": (
        "MetadataStore.apply_events marks a provisioned inode an applied "
        "non-create event names (no decoupled client journals one)"),
    "repro.mds.inotable:InoTable.owner_of": (
        "MetadataStore.apply_events' owner probe for a provisioned inode "
        "an applied non-create event names (no decoupled client journals "
        "one)"),
    "repro.mds.inotable:InoTable.next_free": _query("allocation cursor"),
    "repro.mds.inotable:InoTable.ranges_for": _query("per-client ranges"),
    "repro.mds.inotable:_Runs.__contains__": _query("consumed-run membership"),
    "repro.mon.monitor:Monitor.exact": _query("exact policy lookup"),
    "repro.mon.monitor:Monitor.subtree_paths": _query("policy map listing"),
    "repro.mon.monitor:Monitor.unsubscribe": _query("subscriber removal"),
    "repro.obs.spans:Span.duration_s": _query("span duration"),
    "repro.obs.spans:Span.finished": _query("span state"),
    "repro.obs.spans:Tracer.render": _query("ASCII span forest"),
    "repro.rados.cluster:ObjectStore.aggregate_bandwidth_bps": _query(
        "bandwidth of the OSDs that are up"),
    "repro.rados.cluster:ObjectStore.append": _query("object append"),
    "repro.rados.cluster:ObjectStore.primary": _query("primary replica"),
    "repro.rados.cluster:ObjectStore.remove": _query("object removal"),
    "repro.rados.osd:OSD.remove_object": _query("object removal"),
    "repro.rados.objects:RadosObject.append": _query("object append"),
    "repro.rados.objects:RadosObject.clone": _query("object copy"),
    "repro.rados.striper:Striper.object_count": _query("stripe count"),
    "repro.scenario.population:PopulationModel.hot_subtree": _query(
        "drifting hot subtree at time t"),
    "repro.scenario.population:PopulationModel.weights": _query(
        "Zipf directory weights"),
    "repro.sim.network:Link.transfer_time": _query("unloaded link time"),
    "repro.sim.stats:Counter.__int__": _query("counter value"),
    # -- debug reprs
    "repro.obs.metrics:_Metric.__repr__": _DEBUG_REPR,
    "repro.obs.spans:Span.__repr__": _DEBUG_REPR,
    "repro.rados.cluster:Pool.__repr__": _DEBUG_REPR,
    "repro.rados.objects:RadosObject.__repr__": _DEBUG_REPR,
    "repro.sim.stats:Counter.__repr__": _DEBUG_REPR,
}


# -- the universe ------------------------------------------------------------


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _functions(code, module: str, out: Dict[str, int]) -> None:
    for const in code.co_consts:
        if not hasattr(const, "co_code"):
            continue
        if const.co_name.startswith("<") and const.co_name != "<module>":
            continue  # lambda / comprehension: part of its enclosing def
        if const.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a class body
            key = f"{module}:{const.co_qualname}"
            lines = {line for _, _, line in const.co_lines() if line}
            out[key] = out.get(key, 0) + len(lines)
        _functions(const, module, out)


def universe() -> Dict[str, int]:
    """Every function key in ``src/repro`` -> its executable line count."""
    out: Dict[str, int] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        _functions(code, _module_name(path), out)
    return out


# -- the passes --------------------------------------------------------------


class CallHook:
    """A ``sys.settrace`` hook that records every code object started."""

    def __init__(self) -> None:
        self.seen: Dict[int, object] = {}

    def __enter__(self) -> "CallHook":
        seen = self.seen

        def hook(frame, event, arg):
            # The value keeps the code alive, so an id is never reused.
            seen[id(frame.f_code)] = frame.f_code

        sys.settrace(hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)

    def reached(self) -> set:
        prefix = str(PACKAGE) + os.sep
        return {
            f"{_module_name(Path(code.co_filename))}:{code.co_qualname}"
            for code in self.seen.values()
            if code.co_filename.startswith(prefix)
        }


def _expect(name: str, want: int, got) -> None:
    if got != want:
        raise SystemExit(f"production step {name!r} exited {got}, not {want}")


def _cli(out: Path) -> None:
    from repro.analysis.__main__ import main as analysis
    from repro.bench.__main__ import main as bench
    from repro.conformance.__main__ import main as conformance
    from repro.obs.__main__ import main as obs
    from repro.scenario.__main__ import main as scenario

    for flags in ([], ["--migrate"], ["--corruption"], ["--obs"]):
        argv = [*flags, "--seed", "0", "--histories",
                "--out", str(out / f"conformance{''.join(flags)}.json")]
        _expect(f"conformance {flags}", 0, conformance(argv))
    _expect("model", 0, analysis(["model", "--depth", "4", "--budget", "2000"]))
    for cell, mutation in (("weak,local", "merge-priority-flip"),
                           ("strong,global", "drop-journal-flush")):
        _expect(mutation, 1, analysis(["model", "--cell", cell, "--depth", "4",
                                       "--budget", "400", "--mutation", mutation]))
    _expect("lint", 0, analysis(["lint", str(SRC), "--stats"]))
    _expect("check", 0, analysis([
        "check", "--composition", "append_client_journal+volatile_apply",
        "--composition", "rpcs+stream",
    ]))
    _expect("check reject", 1,
            analysis(["check", "--composition", "nonvolatile_apply"]))
    scenarios = sorted(str(p) for p in (ROOT / "scenarios").glob("*.json"))
    _expect("scenario validate", 0, scenario(["validate", *scenarios]))
    for path in scenarios:
        _expect(f"scenario run {path}", 0,
                scenario(["run", path, "--out", str(out / Path(path).name)]))
    artifact = str(out / Path(scenarios[0]).name)
    _expect("scenario compare", 0, scenario(["compare", artifact, artifact]))
    with mock.patch.dict(os.environ, REPRO_SCALE="tiny"):
        _expect("bench", 0, bench(["--obs", "--json", str(out / "bench")]))
    fig = str(out / "bench" / "fig6c.json")
    _expect("bench compare", 0, bench(["compare", fig, fig]))
    _expect("obs report", 0, obs(["report", str(out / "bench")]))
    _expect("obs probe", 0, obs(["probe", "--out", str(out / "probe")]))


def _examples(out: Path) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def _perf(out: Path) -> None:
    sys.path.insert(0, str(ROOT / "perf"))
    import child

    for workload in sorted(child.WORKLOADS):
        for mode in child.MODES:
            if mode in ("obs", "recorder") and workload != "rpc_closed":
                continue  # the instrumented modes are rpc_closed's
            child.run_once(workload, 0, 0.05, mode)


#: The production pass: what the repo ships and CI drives.
PRODUCTION = (_cli, _examples, _perf)


def production() -> set:
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            CallHook() as hook:
        for step in PRODUCTION:
            step(Path(tmp))
    return hook.reached()


def tier1() -> set:
    import pytest

    with CallHook() as hook:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if code != 0:
        raise SystemExit(f"tier-1 failed (pytest exit {int(code)})")
    return hook.reached()


# -- the verdict -------------------------------------------------------------


def _covers(key: str, name: str) -> bool:
    if ":" not in key:
        return name.startswith(key + ":")
    return name == key or name.startswith(key + ".")


def census(functions: Dict[str, int], prod: set, tests: set) -> Dict:
    test_only = sorted(f for f in functions if f in tests and f not in prod)
    never = sorted(f for f in functions if f not in tests and f not in prod)
    flagged = set(test_only) | set(never)
    reason_of: Dict[str, str] = {}
    stale: List[str] = []
    for key in sorted(KEEP):
        covered = [f for f in flagged if _covers(key, f)]
        if not covered:
            stale.append(key)
        for f in covered:
            reason_of[f] = key
    nested = sorted(
        f"{inner} (under {outer})"
        for outer in KEEP for inner in KEEP
        if inner != outer and _covers(outer, inner)
    )

    def rows(names):
        return [
            {"function": f, "lines": functions[f], "keep": reason_of.get(f),
             "reason": KEEP.get(reason_of.get(f, ""))}
            for f in names
        ]

    return {
        "functions": len(functions),
        "production": sum(1 for f in functions if f in prod),
        "test_only": rows(test_only),
        "never_run": rows(never),
        "unreasoned": sorted(flagged - set(reason_of)),
        "stale_reasons": stale,
        "nested_reasons": nested,
    }


def _summary(result: Dict) -> str:
    def lines(rows):
        return sum(r["lines"] for r in rows)

    out = [
        f"{result['functions']} functions in src/repro: "
        f"{result['production']} reached in production, "
        f"{len(result['test_only'])} test-only ({lines(result['test_only'])} lines), "
        f"{len(result['never_run'])} never run ({lines(result['never_run'])} lines)",
        f"{len(KEEP)} keep reasons",
    ]
    for label in ("unreasoned", "stale_reasons", "nested_reasons"):
        for item in result[label]:
            out.append(f"{label}: {item}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreasoned, stale or nested entry")
    parser.add_argument("--out", metavar="FILE", help="write the JSON here")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve() if args.out else None
    os.chdir(ROOT)
    result = census(universe(), production(), tier1())
    if out is not None:
        out.write_text(json.dumps(result, indent=1) + "\n")
    print(_summary(result))
    failed = any(result[k] for k in ("unreasoned", "stale_reasons", "nested_reasons"))
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
