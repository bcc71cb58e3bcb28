"""The composition gate: rejections, acceptances and the pair table."""

import pytest

from repro.core.policy import (
    MECHANISM_PAIRS,
    SYSTEM_POLICIES,
    TABLE_I,
    CheckError,
    CompositionError,
    SubtreePolicy,
    check_plan,
    composition_warnings,
)


def codes(errors):
    return sorted(e.code for e in errors)


# -- rejections --------------------------------------------------------------


def test_nonvolatile_apply_without_journal_rejected():
    errors = check_plan("nonvolatile_apply")
    assert codes(errors) == ["missing-dependency"]
    assert errors[0].where == "stage 1 (nonvolatile_apply)"
    assert "append_client_journal" in errors[0].message


def test_volatile_apply_without_journal_rejected():
    errors = check_plan("volatile_apply")
    assert codes(errors) == ["missing-dependency"]


def test_duplicate_mechanism_in_stage_rejected():
    errors = check_plan("append_client_journal+volatile_apply||volatile_apply")
    assert "duplicate-mechanism" in codes(errors)
    dup = next(e for e in errors if e.code == "duplicate-mechanism")
    assert dup.where == "stage 2 (volatile_apply||volatile_apply)"


def test_stream_with_client_journal_rejected():
    errors = check_plan("append_client_journal+volatile_apply+stream")
    assert "conflicting-mechanisms" in codes(errors)
    conflict = next(e for e in errors if e.code == "conflicting-mechanisms")
    assert "stream" in conflict.where
    assert "append_client_journal" in conflict.where


def test_persist_mechanisms_need_a_recorder():
    assert codes(check_plan("local_persist")) == ["missing-dependency"]
    assert codes(check_plan("global_persist")) == ["missing-dependency"]
    assert check_plan("rpcs+local_persist") == []
    assert check_plan("append_client_journal+global_persist") == []


def test_stream_needs_updates_at_the_mds():
    # stream with neither rpcs nor a volatile_apply upstream is vacuous,
    # and volatile_apply *after* stream does not help it.
    assert "missing-dependency" in codes(check_plan("stream"))


def test_parse_error_reported_not_raised_by_default():
    errors = check_plan("rpcs++stream")
    assert codes(errors) == ["parse-error"]
    assert errors[0].where == "composition"


def test_raise_on_error_carries_error_list():
    with pytest.raises(CompositionError) as exc:
        check_plan("nonvolatile_apply", raise_on_error=True)
    assert codes(exc.value.errors) == ["missing-dependency"]
    assert "stage 1" in str(exc.value)


def test_check_error_render_format():
    err = CheckError("some-code", "stage 1 (rpcs)", "message")
    assert err.render() == "stage 1 (rpcs): some-code: message"


# -- acceptances -------------------------------------------------------------


def test_all_table_i_compositions_pass():
    for composition in TABLE_I.values():
        assert check_plan(composition) == [], composition


def test_all_system_policies_pass():
    for name, (consistency, durability) in SYSTEM_POLICIES.items():
        assert check_plan(TABLE_I[(consistency, durability)]) == [], name


def test_runtime_wiring_rejects_bad_policy_at_decouple():
    from repro.cluster import Cluster
    from repro.core.namespace_api import Cudele

    cluster = Cluster()
    cudele = Cudele(cluster)

    def run():
        with pytest.raises(CompositionError) as exc:
            yield from cudele.decouple(
                "/job",
                SubtreePolicy(consistency="volatile_apply", durability="none"),
            )
        assert "missing-dependency" in codes(exc.value.errors)
        return None

    cluster.run(run())


# -- the pair table ----------------------------------------------------------


def test_each_pair_is_either_an_error_or_a_warning():
    for a, b, hard, why in MECHANISM_PAIRS:
        text = f"{a}||{b}"
        errors = [e for e in check_plan(text)
                  if e.code == "conflicting-mechanisms"]
        warnings = composition_warnings(text)
        if hard:
            assert [e.message for e in errors] == [why], (a, b)
            assert warnings == [], (a, b)
        else:
            assert errors == [], (a, b)
            assert warnings == [f"{a}+{b}: {why}"], (a, b)
