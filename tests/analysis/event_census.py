"""Engine-event census: what every dispatch of a perf workload is.

Run from the repo root (stdlib only, besides the repo itself)::

    PYTHONPATH=src python tests/analysis/event_census.py --workload rpc_closed --seed 0
    PYTHONPATH=src python tests/analysis/event_census.py --workload verify_sweep --seed 0 --scale 0.1
    PYTHONPATH=src python tests/analysis/event_census.py --workload rpc_closed --seed 0 --json

One workload of ``perf/workloads.py`` is built and run in this process
with an ``engine.trace`` hook on every cluster it makes — the hook the
perf ledger's ``count`` mode uses for ``events_per_op``, so the census
total is that count.  Each dispatch is classified, before its callbacks
run, by

* the **event class** (``_PooledTimeout`` is an ``engine.sleep``,
  ``Transfer`` a network send, ``Reply`` an MDS reply at its client,
  ``StoreGet`` a queue hand-off, ``Process`` a completion), and
* the **waiting body**: for each waiter, the innermost generator of the
  waiting process (``yield from`` followed down), marked ``(start)``
  when the dispatch starts the process; a join's class (``AllOf``,
  ``AnyOf``) when a join waits; ``-`` when nothing does.

It prints dispatches per op for each (class, body) pair, most first.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perf"), str(ROOT / "src")]

from layers import ClusterCounters, NullSpans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.sim.engine import Process  # noqa: E402


def _name(code) -> str:
    return getattr(code, "co_qualname", code.co_name)


def _body(proc: Process) -> str:
    """The innermost generator ``proc`` is running, ``yield from`` down."""
    gen = proc.generator
    if inspect.getgeneratorstate(gen) == inspect.GEN_CREATED:
        return f"{_name(gen.gi_code)} (start)"
    while inspect.isgenerator(gen.gi_yieldfrom):
        gen = gen.gi_yieldfrom
    return _name(gen.gi_code)


def _waiter(cb) -> str:
    owner = getattr(cb, "__self__", None)
    if isinstance(owner, Process):
        return _body(owner)
    if owner is not None:
        return type(owner).__name__
    # AnyOf subscribes one lambda per child.
    return _name(cb.__code__).split(".<locals>")[0].split(".")[0]


def classify(event) -> Tuple[str, str]:
    """``(event class, waiting body)`` of one dispatch."""
    waiters = [_waiter(cb) for cb in event.callbacks]
    return type(event).__name__, ", ".join(waiters) or "-"


class Census(ClusterCounters):
    """The counting hook, classifying each dispatch as it counts it."""

    def __init__(self):
        super().__init__()
        self.kinds: Counter = Counter()

    def _hook(self, t, event) -> None:
        self.events += 1
        self.kinds[classify(event)] += 1


def census(workload: str, seed: int, scale: float = 1.0) -> Dict:
    """Run ``workload`` once under the census; returns its ops, total
    dispatches and each (class, body) pair's count."""
    counter = Census().install()
    try:
        w = WORKLOADS[workload](seed, scale, NullSpans())
        w.run()
    finally:
        counter.uninstall()
    ops = w.result()["ops"]
    return {
        "workload": workload, "seed": seed, "scale": scale, "ops": ops,
        "total": counter.events, "events_per_op": counter.events / ops,
        "kinds": [
            {"class": cls, "body": body, "count": n, "per_op": n / ops}
            for (cls, body), n in sorted(
                counter.kinds.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
    }


def render(result: Dict) -> str:
    out = [
        f"{result['workload']} seed {result['seed']} scale {result['scale']}: "
        f"{result['total']} dispatches / {result['ops']} ops = "
        f"{result['events_per_op']:.6g} per op",
        f"{'count':>9} {'per op':>9}  class  <- waiting body",
    ]
    for row in result["kinds"]:
        out.append(
            f"{row['count']:>9} {row['per_op']:>9.4f}  "
            f"{row['class']}  <- {row['body']}"
        )
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    result = census(args.workload, args.seed, args.scale)
    print(json.dumps(result, indent=1) if args.json else render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
