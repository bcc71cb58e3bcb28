"""Property-based invariants of the capability state machine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mds.caps import CapState, CapTracker

_writes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),   # client
        st.integers(min_value=10, max_value=12),  # dir ino
    ),
    max_size=60,
)


def apply_writes(writes):
    t = CapTracker()
    for client, dir_ino in writes:
        t.write_access(dir_ino, client)
    return t


@settings(max_examples=80, deadline=None)
@given(writes=_writes)
def test_exclusive_always_has_exactly_one_holder(writes):
    t = apply_writes(writes)
    for dir_ino, caps in t._dirs.items():
        if caps.state is CapState.EXCLUSIVE:
            assert caps.holder in {c for c, d in writes if d == dir_ino}
        if caps.state is CapState.SHARED:
            assert caps.holder is None
        if caps.state is CapState.UNHELD:
            assert caps.holder is None


@settings(max_examples=80, deadline=None)
@given(writes=_writes)
def test_rpc_count_always_one_or_two(writes):
    t = CapTracker()
    for client, dir_ino in writes:
        assert t.write_access(dir_ino, client).rpcs in (1, 2)


@settings(max_examples=80, deadline=None)
@given(writes=_writes)
def test_revocations_never_exceed_write_transitions(writes):
    t = apply_writes(writes)
    assert t.revocations <= len(writes)
    assert t.grants <= len(writes)
