"""Model checker: trunk exhaustion, mutation drills, reduction soundness."""

import json

import pytest

from repro.analysis.model import (
    MUTATIONS,
    crash_variants,
    explore_cell,
    explore_matrix,
    model_report_json,
    run_schedule,
    variant_name,
)
from repro.conformance.driver import CELLS


# -- scope bounds -----------------------------------------------------------


def test_crash_variants_decoupled_branch_after_every_op():
    variants = crash_variants("weak", "local", depth=3)
    assert variants == [None, ("owner", 1), ("owner", 2), ("owner", 3)]
    assert [variant_name(v) for v in variants] == [
        "no-crash", "owner-crash@op1", "owner-crash@op2", "owner-crash@op3",
    ]


def test_crash_variants_strong_rows():
    assert crash_variants("strong", "none", depth=3) == [None]
    assert crash_variants("strong", "local", depth=3) == [None]
    assert crash_variants("strong", "global", depth=3) == [None, ("mds",)]
    assert variant_name(("mds",)) == "mds-journal-replay"


# -- determinism and fingerprints -------------------------------------------


def test_same_schedule_replays_to_identical_history():
    a = run_schedule("weak", "local", (), None, depth=2)
    b = run_schedule("weak", "local", (), None, depth=2)
    assert a.ok and b.ok
    assert a.history_text == b.history_text
    assert a.fingerprint == b.fingerprint
    assert a.taken == b.taken


def test_distinct_crash_variants_fingerprint_differently():
    plain = run_schedule("weak", "none", (), None, depth=2)
    crashed = run_schedule("weak", "none", (), ("owner", 1), depth=2)
    assert plain.ok and crashed.ok
    # Durability none loses the journal at the crash: different final
    # state, different fingerprint.
    assert plain.fingerprint != crashed.fingerprint


# -- trunk exhaustion -------------------------------------------------------


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_trunk_cell_exhausts_with_zero_violations(cell):
    consistency, durability = cell
    report = explore_cell(consistency, durability, depth=4, budget=2000)
    assert report["ok"], report["counterexample"]
    assert report["exhausted"]
    assert report["counterexample"] is None
    assert report["runs"] >= 1
    assert report["distinct_states"] >= 1
    # Every declared crash branch was actually explored.
    assert report["crash_variants"] == [
        variant_name(v)
        for v in crash_variants(consistency, durability, 4)
    ]


# -- mutation drills --------------------------------------------------------


def test_merge_priority_flip_is_caught_with_minimal_counterexample():
    mutation = MUTATIONS["merge-priority-flip"]
    report = explore_cell("weak", "local", depth=4, budget=400,
                          mutation=mutation)
    assert not report["ok"]
    ce = report["counterexample"]
    assert ce is not None
    codes = {v["code"] for v in ce["violations"]}
    assert "strict-merge-unapplied" in codes
    # The drill violates already in the default order: the shrunk
    # schedule must be the empty one.
    assert ce["schedule"] == []
    assert ce["history"]


def test_drop_journal_flush_is_caught_with_minimal_counterexample():
    mutation = MUTATIONS["drop-journal-flush"]
    report = explore_cell("strong", "global", depth=4, budget=400,
                          mutation=mutation)
    assert not report["ok"]
    ce = report["counterexample"]
    codes = {v["code"] for v in ce["violations"]}
    assert "strict-global-unflushed" in codes
    assert ce["schedule"] == []


def test_mutations_do_not_leak_after_the_drill():
    mutation = MUTATIONS["merge-priority-flip"]
    explore_cell("weak", "local", depth=2, budget=50, mutation=mutation)
    # The module patch is undone: trunk behaviour is back.
    clean = explore_cell("weak", "local", depth=2, budget=200)
    assert clean["ok"] and clean["exhausted"]


def test_explore_matrix_narrows_to_the_drill_cell():
    mutation = MUTATIONS["drop-journal-flush"]
    report = explore_matrix(depth=2, budget=50, mutation=mutation)
    assert [c["cell"] for c in report["cells"]] == ["strong/global"]
    assert not report["ok"]


# -- reduction soundness ----------------------------------------------------


def test_reduction_preserves_reachable_states():
    reduced = explore_cell("strong", "none", depth=3, budget=2000)
    full = explore_cell("strong", "none", depth=3, budget=2000,
                        reduction=False)
    assert reduced["exhausted"] and full["exhausted"]
    assert reduced["ok"] and full["ok"]
    # The pruner must only skip interleavings equivalent to explored
    # ones: both explorations reach exactly the same state set.
    assert reduced["fingerprints"] == full["fingerprints"]
    assert reduced["pruned"] > 0
    assert reduced["runs"] < full["runs"]


def test_tagged_scope_bound_preserves_reachable_states():
    # expose="all" records every micro-step tie; expose="tagged" (the
    # model checker's scope bound) only cross-client ties.  Both must
    # reach the same final states on an exhaustive sweep.
    def dfs(expose):
        stack, fingerprints, runs = [()], set(), 0
        while stack:
            assert runs < 1000, "mini-DFS failed to exhaust"
            sched = stack.pop()
            res = run_schedule("weak", "none", sched, None, depth=2,
                               expose=expose)
            runs += 1
            assert res.ok
            fingerprints.add(res.fingerprint)
            for j in range(len(sched), len(res.decisions)):
                base = tuple(res.taken[:j])
                for a in range(1, res.decisions[j].size):
                    stack.append(base + (a,))
        return fingerprints

    assert dfs("all") == dfs("tagged")


# -- artifact ---------------------------------------------------------------


def test_model_report_json_round_trips():
    report = explore_matrix(cells=[("invisible", "none")], depth=2,
                            budget=50)
    text = model_report_json(report)
    doc = json.loads(text)
    assert doc["ok"] is True
    assert doc["subtree"] == report["subtree"]
    assert doc["cells"][0]["cell"] == "invisible/none"
    assert text.endswith("\n")
