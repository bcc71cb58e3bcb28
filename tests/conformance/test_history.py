"""The history event type and its canonical serialization.

``History.canonical()`` writes each line straight from the event's
fields instead of building a dict and calling the JSON encoder; the
differential tests here hold it byte-equal to that encoder over the
same fields, for arbitrary events.  ``History.from_canonical`` is the
other direction, and it refuses a line whose fields do not have the
types the renderer relies on.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import History, HistoryEvent
from repro.conformance.history import KINDS

pytestmark = pytest.mark.conformance

#: The reference: the canonical encoder over the event's non-empty fields.
_REFERENCE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _reference_line(event: HistoryEvent) -> str:
    data = {}
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if value is not None and value != {}:
            data[f.name] = value
    return _REFERENCE.encode(data)


class _Int(int):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


_SPECIAL_TEXT = st.sampled_from([
    "", '"', "\\", "\\\"", "\x00", "\x1f", "\x7f", "\n\t\r", "é", " ",
    "日本", "\U0001f600", "\ud800", "a/b c",
])
_TEXT = st.one_of(
    st.text(), _SPECIAL_TEXT, st.text().map(_Str),
)
_INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 63, max_value=2 ** 200),
    st.integers().map(_Int),
    st.booleans(),
)
_TIMES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([
        -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 1.5e300,
        math.nan, math.inf, -math.inf,
    ]),
    st.floats(allow_nan=False).map(_Float),
)
_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), _TEXT,
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


_EVENTS = st.builds(
    HistoryEvent,
    t=_TIMES,
    kind=st.sampled_from(KINDS),
    actor=_TEXT,
    op=_optional(_TEXT),
    path=_optional(_TEXT),
    ino=_optional(_INTS),
    seq=_optional(_INTS),
    op_id=_optional(_INTS),
    client=_optional(_INTS),
    scope=_optional(_TEXT),
    ok=_optional(st.one_of(st.booleans(), st.integers(0, 1))),
    error=_optional(_TEXT),
    target=_optional(_TEXT),
    detail=st.one_of(
        st.just({}),
        st.dictionaries(st.text(max_size=6), _JSON, max_size=4),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EVENTS, max_size=4))
def test_canonical_is_byte_equal_to_the_encoder(events):
    history = History(events)
    expected = "".join(_reference_line(e) + "\n" for e in events)
    assert history.canonical() == expected


@pytest.mark.parametrize("t", [
    -0.0, 5e-324, 1e16, 3, 2 ** 70, math.nan, math.inf, -math.inf, True,
])
def test_time_renders_as_the_encoder_does(t):
    event = HistoryEvent(t, "crash", "mds0", ok=False, ino=2 ** 64)
    assert History([event]).canonical() == _reference_line(event) + "\n"


def _sample(field: dataclasses.Field):
    """A non-empty value of a field's declared type."""
    if field.name == "kind":
        return "invoke"
    declared = str(field.type)
    for name, value in (("bool", True), ("int", 7), ("float", 1.5),
                        ("str", "s"), ("Mapping", {"k": [1]})):
        if name in declared:
            return value
    raise AssertionError(f"no sample value for {field.name}: {declared}")


def test_renderer_writes_every_field():
    fields = dataclasses.fields(HistoryEvent)
    event = HistoryEvent(**{f.name: _sample(f) for f in fields})
    line = History([event]).canonical()
    assert sorted(json.loads(line)) == sorted(f.name for f in fields)
    assert line == _reference_line(event) + "\n"


def test_events_without_detail_share_one_read_only_mapping():
    a = HistoryEvent(0.0, "invoke", "client0")
    b = HistoryEvent(1.0, "crash", "mds0")
    assert a.detail is b.detail
    assert a.detail == {}
    with pytest.raises(TypeError):
        a.detail["mode"] = "x"
    assert not hasattr(a, "__dict__")


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown history event kind"):
        HistoryEvent(0.0, "teleport", "client0")


# -- hostile input ---------------------------------------------------------

_GOOD = '{"actor":"client0","kind":"invoke","t":0.5}'


@pytest.mark.parametrize("line, message", [
    ('{"t":"x","kind":"invoke","actor":"a"}', "'t'"),
    ('{"t":true,"kind":"invoke","actor":"a"}', "'t'"),
    ('{"t":1.0,"kind":"invoke"}', "missing 'actor'"),
    ('{"kind":"invoke","actor":"a"}', "missing 't'"),
    ('{"t":1.0,"actor":"a"}', "missing 'kind'"),
    ('{"t":null,"kind":"invoke","actor":"a"}', "'t'"),
    ("[1]", "JSON object"),
    ('"invoke"', "JSON object"),
    ("7", "JSON object"),
    ('{"t":1.0,"kind":3,"actor":"a"}', "'kind'"),
    ('{"t":1.0,"kind":"invoke","actor":null}', "'actor'"),
    ('{"t":1.0,"kind":"invoke","actor":"a","ino":"5"}', "'ino'"),
    ('{"t":1.0,"kind":"invoke","actor":"a","seq":1.5}', "'seq'"),
    ('{"t":1.0,"kind":"invoke","actor":"a","op_id":true}', "'op_id'"),
    ('{"t":1.0,"kind":"invoke","actor":"a","client":"c"}', "'client'"),
    ('{"t":1.0,"kind":"complete","actor":"a","ok":1}', "'ok'"),
    ('{"t":1.0,"kind":"invoke","actor":"a","op":5}', "'op'"),
    ('{"t":1.0,"kind":"invoke","actor":"a","path":["/x"]}', "'path'"),
    ('{"t":1.0,"kind":"crash","actor":"a","detail":[1]}', "'detail'"),
    ('{"t":1.0,"kind":"crash","actor":"a","detail":null}', "'detail'"),
    ('{"t":1.0,"kind":"invoke","actor":"a","bogus":1}', "unknown"),
    ('{"t":1.0,"kind":"teleport","actor":"a"}', "unknown history event kind"),
    ('{"t":1.0,', "Expecting"),
], ids=[
    "string-time", "bool-time", "no-actor", "no-time", "no-kind",
    "null-time", "array-line", "string-line", "number-line", "int-kind",
    "null-actor", "string-ino", "float-seq", "bool-op-id", "string-client",
    "int-ok", "int-op", "list-path", "list-detail", "null-detail",
    "unknown-field", "unknown-kind", "truncated-json",
])
def test_a_bad_line_raises_one_value_error_naming_it(line, message):
    text = "\n".join([_GOOD, "", _GOOD, line, _GOOD]) + "\n"
    with pytest.raises(ValueError, match="history line 4: ") as info:
        History.from_canonical(text)
    assert message in str(info.value)


def test_nulls_in_optional_fields_parse_as_absent():
    text = (
        '{"actor":"a","client":null,"kind":"invoke","ok":null,"t":2}\n'
    )
    event = History.from_canonical(text).events[0]
    assert (event.client, event.ok, event.t) == (None, None, 2)
    assert History([event]).canonical() == (
        '{"actor":"a","kind":"invoke","t":2}\n'
    )
