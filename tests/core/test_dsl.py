"""Tests for the composition DSL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsl import DslError, parse_composition

KNOWN = {
    "rpcs", "append_client_journal", "stream", "volatile_apply",
    "nonvolatile_apply", "local_persist", "global_persist",
}


def test_single_mechanism():
    plan = parse_composition("rpcs")
    assert plan.stages == (("rpcs",),)
    assert plan.mechanisms == ["rpcs"]
    assert plan.workload_mode == "rpc"


def test_serial_stages():
    plan = parse_composition("append_client_journal+volatile_apply")
    assert plan.stages == (("append_client_journal",), ("volatile_apply",))
    assert plan.workload_mode == "decoupled"


def test_parallel_group():
    plan = parse_composition("global_persist||volatile_apply")
    assert plan.stages == (("global_persist", "volatile_apply"),)


def test_mixed_serial_parallel():
    plan = parse_composition(
        "append_client_journal+global_persist||volatile_apply+stream"
    )
    assert plan.stages == (
        ("append_client_journal",),
        ("global_persist", "volatile_apply"),
        ("stream",),
    )


def test_whitespace_and_case_tolerated():
    plan = parse_composition("  RPCS + Local_Persist ")
    assert plan.stages == (("rpcs",), ("local_persist",))


def test_unknown_mechanism_rejected():
    with pytest.raises(DslError):
        parse_composition("rpcs+teleport")


def test_empty_composition_rejected():
    with pytest.raises(DslError):
        parse_composition("")
    with pytest.raises(DslError):
        parse_composition("   ")


def test_empty_stage_rejected():
    with pytest.raises(DslError):
        parse_composition("rpcs++stream")
    with pytest.raises(DslError):
        parse_composition("rpcs||")


def test_invalid_name_rejected():
    with pytest.raises(DslError):
        parse_composition("123bad")


def test_completion_stages_keep_stream_completion():
    # RPCs and Append Client Journal finish with the workload; Stream
    # also acts then, and still flushes at completion.
    plan = parse_composition("append_client_journal+local_persist+volatile_apply")
    assert plan.completion_stages == [["local_persist"], ["volatile_apply"]]
    plan = parse_composition("rpcs+stream")
    assert plan.completion_stages == [["stream"]]


def test_completion_stages_keep_parallel_structure():
    plan = parse_composition(
        "append_client_journal+global_persist||volatile_apply"
    )
    assert plan.completion_stages == [["global_persist", "volatile_apply"]]


def test_canonical_round_trip():
    text = "append_client_journal+global_persist||volatile_apply"
    assert parse_composition(text).canonical() == text


def test_mechanisms_deduplicated_in_order():
    plan = parse_composition("rpcs+rpcs+stream")
    assert plan.mechanisms == ["rpcs", "stream"]


def test_error_messages_name_the_problem():
    with pytest.raises(DslError, match="empty composition"):
        parse_composition("")
    with pytest.raises(DslError, match="empty mechanism in composition"):
        parse_composition("rpcs++stream")
    with pytest.raises(DslError, match="invalid mechanism name '123bad'"):
        parse_composition("123bad")
    with pytest.raises(DslError, match="unknown mechanism 'teleport'"):
        parse_composition("rpcs+teleport")


def test_unknown_mechanism_error_lists_known_set():
    with pytest.raises(DslError) as exc:
        parse_composition("teleport")
    for name in sorted(KNOWN):
        assert name in str(exc.value)


def test_custom_known_set_overrides_registry():
    plan = parse_composition("alpha+beta||gamma", known={"alpha", "beta", "gamma"})
    assert plan.stages == (("alpha",), ("beta", "gamma"))
    # The registered names are unknown under a custom set.
    with pytest.raises(DslError, match="unknown mechanism 'rpcs'"):
        parse_composition("rpcs", known={"alpha"})


def test_spaces_inside_names_become_underscores():
    plan = parse_composition("append client journal+volatile apply")
    assert plan.stages == (("append_client_journal",), ("volatile_apply",))


def test_leading_and_trailing_operators_rejected():
    for text in ("+rpcs", "rpcs+", "||rpcs", "rpcs||", "+", "||"):
        with pytest.raises(DslError):
            parse_composition(text)


def test_punctuation_and_unicode_names_rejected():
    for text in ("rpcs-stream", "rpc.s", "rpçs", "rpcs;stream"):
        with pytest.raises(DslError):
            parse_composition(text)


def test_dsl_error_is_a_value_error():
    assert issubclass(DslError, ValueError)


@settings(max_examples=40, deadline=None)
@given(
    stages=st.lists(
        st.lists(st.sampled_from(sorted(KNOWN)), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_property_canonical_parse_round_trip(stages):
    text = "+".join("||".join(group) for group in stages)
    plan = parse_composition(text)
    assert parse_composition(plan.canonical()).stages == plan.stages
    assert plan.stages == tuple(tuple(g) for g in stages)
