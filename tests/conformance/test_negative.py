"""Negative paths: injected violations are caught with distinct codes.

Each test takes a conformant golden history, corrupts it in exactly one
way, and asserts the oracle rejects it with the *specific* stable code
for that failure mode — a checker that merely said "not ok" could not
tell an unseen completion from a torn persist prefix.
"""

import json
import pathlib

import pytest

from repro.conformance import (
    VIOLATION_CODES,
    History,
    HistoryEvent,
    check_history,
)
from repro.conformance.driver import SUBTREE

pytestmark = pytest.mark.conformance

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _load_dicts(name):
    text = (GOLDEN_DIR / f"{name}.history.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def _check(dicts, consistency, durability, owner):
    history = History(HistoryEvent.from_dict(d) for d in dicts)
    verdict = check_history(
        history, consistency, durability, subtree=SUBTREE, owner=owner
    )
    return verdict, {v["code"] for v in verdict["violations"]}


def test_dropped_visibility_is_strong_unseen_completion():
    dicts = _load_dicts("strong_rpc")
    victims = [
        d for d in dicts
        if d["kind"] == "visible" and d.get("op") == "create"
    ]
    assert victims, "golden lost its visible creates?"
    target = victims[-1]
    dicts = [
        d for d in dicts
        if not (d["kind"] == "visible" and d.get("path") == target["path"])
    ]
    verdict, codes = _check(dicts, "strong", "none", "client1")
    assert not verdict["ok"]
    assert "strong-unseen-completion" in codes


def test_reordered_persist_prefix_is_rejected():
    dicts = _load_dicts("strong_rpc")
    idx = [
        i for i, d in enumerate(dicts)
        if d["kind"] == "persisted" and d.get("scope") == "global"
    ]
    assert len(idx) >= 2, "golden has too few global persists to reorder"
    a, b = idx[0], idx[1]
    dicts[a]["seq"], dicts[b]["seq"] = dicts[b]["seq"], dicts[a]["seq"]
    verdict, codes = _check(dicts, "strong", "none", "client1")
    assert not verdict["ok"]
    assert "persist-prefix-reorder" in codes


def test_duplicate_inode_allocation_is_rejected():
    dicts = _load_dicts("strong_rpc")
    creates = [
        d for d in dicts
        if d["kind"] == "visible" and d.get("op") == "create"
        and d.get("ino")
    ]
    assert len(creates) >= 2, "golden has too few inode-carrying creates"
    creates[1]["ino"] = creates[0]["ino"]
    verdict, codes = _check(dicts, "strong", "none", "client1")
    assert not verdict["ok"]
    assert "dup-ino-allocation" in codes


def test_injections_carry_three_distinct_codes():
    # The three canonical injections must be distinguishable from each
    # other by code alone (the point of the stable-code contract).
    targets = {
        "strong-unseen-completion",
        "persist-prefix-reorder",
        "dup-ino-allocation",
    }
    assert len(targets) == 3
    assert targets <= set(VIOLATION_CODES)


def test_early_visibility_is_weak_violation():
    # Forge a visible event for the owner's op outside any merge window.
    dicts = _load_dicts("weak_decoupled")
    first_merge = next(
        i for i, d in enumerate(dicts) if d["kind"] == "merge_begin"
    )
    owner_client = next(
        d["client"] for d in dicts
        if d["kind"] == "invoke" and d["actor"] == "dclient1001"
    )
    forged = {
        "t": dicts[first_merge]["t"],
        "kind": "visible",
        "actor": "mds0",
        "op": "create",
        "path": f"{SUBTREE}/forged",
        "client": owner_client,
    }
    dicts.insert(first_merge, forged)
    verdict, codes = _check(dicts, "weak", "none", "dclient1001")
    assert not verdict["ok"]
    assert "weak-early-visibility" in codes


def test_lost_recovery_is_durability_local_lost():
    # Drop the recovered events after the crash: the locally persisted
    # prefix no longer comes back.
    dicts = _load_dicts("crash_local_persist")
    assert any(
        d["kind"] == "persisted" and d.get("scope") == "local"
        for d in dicts
    )
    dicts = [
        d for d in dicts
        if not (d["kind"] == "recovered" and d["actor"] == "dclient1001")
    ]
    verdict, codes = _check(dicts, "invisible", "local", "dclient1001")
    assert not verdict["ok"]
    assert "durability-local-lost" in codes


def test_lost_valid_prefix_is_corrupt_recovery_lost():
    # Drop one recovered update inside the checksummed-valid prefix:
    # recovery from the damaged image lost data the checksums vouch for.
    dicts = _load_dicts("corrupted_recovery")
    fault = next(d for d in dicts if d["kind"] == "persist_fault")
    valid_seq = fault["detail"]["valid_seq"]
    victims = [
        d for d in dicts
        if d["kind"] == "recovered" and d.get("seq") == valid_seq
    ]
    assert victims, "golden recovered nothing at the valid watermark?"
    dicts = [d for d in dicts if d not in victims]
    verdict, codes = _check(dicts, "invisible", "local", "dclient1001")
    assert not verdict["ok"]
    assert "corrupt-recovery-lost" in codes
    assert "durability-local-lost" not in codes


def test_recovery_past_valid_prefix_is_corrupt_recovery_overrun():
    # Shrink the fault's recorded valid prefix by one event: the run's
    # actual recovery now restores one update past what the checksums
    # can vouch for.
    dicts = _load_dicts("corrupted_recovery")
    fault = next(d for d in dicts if d["kind"] == "persist_fault")
    assert fault["detail"]["valid_seq"] >= 1
    fault["detail"]["valid_seq"] -= 1
    fault["detail"]["valid_events"] -= 1
    verdict, codes = _check(dicts, "invisible", "local", "dclient1001")
    assert not verdict["ok"]
    assert "corrupt-recovery-overrun" in codes
    assert "durability-local-phantom" not in codes


def test_corrupt_codes_are_stable_and_distinct():
    assert {"corrupt-recovery-lost", "corrupt-recovery-overrun"} <= set(
        VIOLATION_CODES
    )


def test_dropped_import_ack_is_migrate_incomplete_handoff():
    # Drop the migration's commit record (the IMPORT_ACK never landed,
    # so the flip was never recorded): the begin dangles forever.
    dicts = _load_dicts("migration_under_load")
    assert any(
        d["kind"] == "migrate" and d["detail"]["phase"] == "commit"
        for d in dicts
    )
    dicts = [
        d for d in dicts
        if not (d["kind"] == "migrate" and d["detail"]["phase"] == "commit")
    ]
    verdict, codes = _check(dicts, "strong", "global", "client1")
    assert not verdict["ok"]
    assert "migrate-incomplete-handoff" in codes


def test_stale_rank_visibility_is_migrate_dual_authority():
    # Forge a visible create by the old authority after the handoff
    # committed: two ranks acting as the subtree's authority at once.
    dicts = _load_dicts("migration_under_load")
    commit = next(
        d for d in dicts
        if d["kind"] == "migrate" and d["detail"]["phase"] == "commit"
    )
    idx = dicts.index(commit)
    forged = {
        "t": commit["t"],
        "kind": "visible",
        "actor": commit["detail"]["src"],
        "op": "create",
        "path": f"{SUBTREE}/stale-write",
        "client": 1,
    }
    dicts.insert(idx + 1, forged)
    verdict, codes = _check(dicts, "strong", "global", "client1")
    assert not verdict["ok"]
    assert "migrate-dual-authority" in codes


def test_migrate_codes_are_stable_and_distinct():
    assert {"migrate-incomplete-handoff", "migrate-dual-authority"} <= set(
        VIOLATION_CODES
    )
