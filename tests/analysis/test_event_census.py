"""Smoke test of the event census (``tests/analysis/event_census.py``):
its classified dispatches add up to the plain counting hook's total,
the count the perf ledger's ``events_per_op`` is made of."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().with_name("event_census.py")
_spec = importlib.util.spec_from_file_location("event_census", _PATH)
event_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(event_census)


def test_the_census_total_is_the_counting_hooks():
    from child import run_once  # on sys.path once the census is loaded

    result = event_census.census("rpc_closed", 0, 0.02)
    plain = run_once("rpc_closed", 0, 0.02, "count")
    assert result["ops"] == plain["ops"] == 512
    assert result["total"] == plain["events"]
    assert sum(row["count"] for row in result["kinds"]) == result["total"]
    # Every RPC reply is one wake at its client.
    kinds = {(r["class"], r["body"]): r["count"] for r in result["kinds"]}
    assert kinds[("Reply", "Client._call")] == kinds[("Transfer", "Network.send")]
    assert event_census.render(result).startswith(
        f"rpc_closed seed 0 scale 0.02: {result['total']} dispatches / 512 ops"
    )
