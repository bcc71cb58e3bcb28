"""Model checker: trunk exhaustion, budget caps, mutation drills."""

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


#: Depth-4 reach of every cell: (runs, distinct final states).  Every
#: cross-client tie is explored, so these are the whole schedule space.
_DEPTH4_REACH = {
    ("invisible", "none"): (20, 1),
    ("invisible", "local"): (20, 1),
    ("invisible", "global"): (20, 1),
    ("weak", "none"): (20, 4),
    ("weak", "local"): (20, 1),
    ("weak", "global"): (20, 1),
    ("strong", "none"): (16, 1),
    ("strong", "local"): (16, 1),
    ("strong", "global"): (32, 2),
}


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_trunk_cell_exhausts_with_zero_violations(cell):
    consistency, durability = cell
    report = explore_cell(consistency, durability, depth=4, budget=2000)
    assert report["ok"], report["counterexample"]
    assert report["exhausted"]
    assert report["counterexample"] is None
    assert (report["runs"], report["distinct_states"]) == _DEPTH4_REACH[cell]
    # Every declared crash branch was actually explored.
    assert report["crash_variants"] == [
        variant_name(v)
        for v in crash_variants(consistency, durability, 4)
    ]


# -- budget caps ------------------------------------------------------------


@pytest.mark.parametrize("budget,variants,exhausted", [
    # 16 runs is exactly the first four variants' schedule spaces: the
    # budget runs out as a stack empties and owner-crash@op4 never runs.
    (16, 4, False),
    (20, 5, True),
])
def test_exhausted_means_every_crash_variant_ran(budget, variants, exhausted):
    report = explore_cell("invisible", "none", depth=4, budget=budget)
    assert report["runs"] == budget
    assert len(report["crash_variants"]) == variants
    assert report["exhausted"] is exhausted


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


# -- scope bound -----------------------------------------------------------


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


def test_explore_matrix_refuses_a_reduction():
    with pytest.raises(ValueError):
        explore_matrix(cells=[("invisible", "none")], depth=1, reduction=True)
