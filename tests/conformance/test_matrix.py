"""The seeded exploration driver: all nine Table I cells conform.

This is the acceptance bar for the conformance oracle: under a fixed
seed every (consistency, durability) cell runs its scenario — workload
bursts, the cell's persist mechanism, a crash/recover cycle, the
policy's completion mechanisms — and the recorded history passes every
checker.  A parallel (``--jobs``) matrix run must be byte-identical to
the serial one.
"""

import json

import pytest

from repro.conformance import CELLS, driver, run_matrix, verdict_json
from repro.conformance.driver import report_json
from repro.core.policy import SubtreePolicy

pytestmark = pytest.mark.conformance


def test_all_nine_cells_conform():
    report = run_matrix(seed=0)
    assert len(report["cells"]) == len(CELLS) == 9
    for verdict in report["cells"]:
        assert verdict["ok"], (
            f"{verdict['consistency']}/{verdict['durability']}: "
            f"{verdict['violations']}"
        )
    assert report["ok"]


def test_cells_cover_the_full_matrix():
    report = run_matrix(seed=0)
    seen = {(v["consistency"], v["durability"]) for v in report["cells"]}
    assert seen == set(CELLS)
    # Every cell produced a non-trivial history.
    assert all(v["events"] > 20 for v in report["cells"])


def test_serial_and_parallel_runs_are_byte_identical():
    serial = run_matrix(seed=1, jobs=1)
    fanned = run_matrix(seed=1, jobs=4)
    assert report_json(serial, with_histories=True) == \
        report_json(fanned, with_histories=True)


def test_distinct_seeds_produce_distinct_histories():
    a = run_matrix(seed=0, cells=[("weak", "none")])
    b = run_matrix(seed=2, cells=[("weak", "none")])
    assert a["ok"] and b["ok"]
    assert a["histories"] != b["histories"]


def test_verdict_json_is_canonical():
    report = run_matrix(seed=0, cells=[("strong", "none")])
    text = verdict_json(report["cells"][0])
    assert text.endswith("\n")
    assert verdict_json(report["cells"][0]) == text  # stable


class _NonvolatilePolicy(SubtreePolicy):
    """Table I's policies, with Nonvolatile Apply as the weak cells'
    merge in place of Volatile Apply."""

    @classmethod
    def from_semantics(cls, consistency, durability, **kw):
        policy = SubtreePolicy.from_semantics(consistency, durability, **kw)
        policy.consistency = policy.consistency.replace(
            "+volatile_apply", "+nonvolatile_apply"
        )
        return policy


@pytest.mark.parametrize("migrate", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_weak_cells_conform_with_nonvolatile_apply(
    monkeypatch, seed, migrate,
):
    """Nonvolatile Apply merges through the MDS's one merge path and its
    restart is a crash and recovery, so the oracle judges it as it
    judges Volatile Apply, with no special case."""
    monkeypatch.setattr(driver, "SubtreePolicy", _NonvolatilePolicy)
    for durability in ("none", "local", "global"):
        result = driver.run_cell(("weak", durability, seed, False, migrate))
        verdict = result["verdict"]
        assert verdict["ok"], (durability, verdict["violations"])
        # The merge's MDS restart left its crash mark.
        events = [json.loads(line) for line in result["history"].splitlines()]
        assert any(
            e["kind"] == "crash" and e["actor"].startswith("mds")
            for e in events
        )
