"""Codec tests: round-trips, corruption detection, recovery semantics."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.journal.events import EventType, JournalEvent
from repro.journal.format import JOURNAL_MAGIC, JournalCodec, JournalFormatError


def ev(path="/f", op=EventType.CREATE, **kw):
    return JournalEvent(op, path, **kw)


def test_single_event_round_trip():
    e = ev("/dir/file", ino=42, mode=0o755, uid=1000, gid=100, mtime=12.5,
           seq=7, client_id=3, size=4096)
    data = JournalCodec.encode_event(e)
    decoded, nxt = JournalCodec.decode_event(data)
    assert decoded == e
    assert nxt == len(data)


def test_rename_round_trip():
    e = ev("/a", op=EventType.RENAME, target_path="/b/c")
    decoded, _ = JournalCodec.decode_event(JournalCodec.encode_event(e))
    assert decoded.target_path == "/b/c"


def _clean(data):
    """The events of a stream the verifying scan finds undamaged."""
    scan = JournalCodec.scan_stream(data)
    assert scan.ok, (scan.damage, scan.damage_offset)
    return scan.events


def test_stream_round_trip_many():
    events = [ev(f"/d/f{i}", ino=i, seq=i + 1) for i in range(50)]
    data = JournalCodec.encode_stream(events)
    assert data.startswith(JOURNAL_MAGIC)
    assert _clean(data) == events


def test_empty_stream():
    data = JournalCodec.encode_stream([])
    assert _clean(data) == []


def test_bad_magic_rejected():
    data = b"NOTMAGIC" + b"\x00" * 16
    scan = JournalCodec.scan_stream(data)
    assert (scan.damage, scan.damage_offset) == ("segment-corrupt", 0)
    assert scan.events == [] and scan.version == 0


def test_short_stream_rejected():
    scan = JournalCodec.scan_stream(b"xx")
    assert (scan.damage, scan.damage_offset) == ("torn-tail", 0)
    assert scan.events == []


# 2: the retired record without a size; 1: the retired bare-frame format
@pytest.mark.parametrize("version", [99, 2, 1])
def test_bad_version_rejected(version):
    data = bytearray(JournalCodec.encode_stream([ev("/f")]))
    data[8] = version  # version field
    scan = JournalCodec.scan_stream(bytes(data))
    assert (scan.damage, scan.damage_offset) == ("segment-corrupt", 0)
    assert scan.events == [] and scan.version == version


def test_truncated_tail_recovery_returns_prefix():
    events = [ev(f"/f{i}", seq=i) for i in range(3)]
    data = JournalCodec.encode_stream(events)
    scan = JournalCodec.scan_stream(data[:-5])
    assert scan.damage == "torn-tail"
    assert scan.events == events[:2]


def test_torn_tail_is_reported_where_the_valid_prefix_ends():
    events = [ev(f"/f{i}", seq=i) for i in range(3)]
    data = JournalCodec.encode_stream(events, segment_events=2)
    scan = JournalCodec.scan_stream(data[:-5])
    assert scan.damage == "torn-tail"
    assert scan.valid_segments == 1
    whole = JournalCodec.encode_stream(events[:2], segment_events=2)
    assert scan.valid_bytes == scan.damage_offset == len(whole)


def test_scan_keeps_whole_segments_before_a_corrupt_one():
    events = [ev(f"/f{i}", seq=i) for i in range(4)]
    data = bytearray(JournalCodec.encode_stream(events, segment_events=2))
    data[data.find(b"/f3") + 2] ^= 0xFF
    scan = JournalCodec.scan_stream(bytes(data))
    assert scan.damage == "segment-corrupt"
    assert scan.valid_segments == 1
    assert [e.path for e in scan.events] == ["/f0", "/f1", "/f2"]


def test_segment_magic_damage_is_corrupt_at_that_segment():
    assert JournalCodec.scan_stream(JournalCodec.encode_stream([])).ok
    events = [ev(f"/f{i}", seq=i) for i in range(4)]
    data = bytearray(JournalCodec.encode_stream(events, segment_events=2))
    second = JournalCodec.segment_spans(bytes(data))[1][0]
    data[second] ^= 0xFF
    scan = JournalCodec.scan_stream(bytes(data))
    assert (scan.damage, scan.damage_offset) == ("segment-corrupt", second)
    assert scan.valid_segments == 1
    assert scan.events[:2] == events[:2]


def test_corrupt_body_detected_by_crc():
    events = [ev("/good"), ev("/bad"), ev("/after")]
    data = bytearray(JournalCodec.encode_stream(events))
    # Flip a byte inside the second event's path.
    idx = data.find(b"/bad")
    data[idx + 1] ^= 0xFF
    scan = JournalCodec.scan_stream(bytes(data))
    assert scan.damage == "segment-corrupt"
    assert [e.path for e in scan.events] == ["/good"]


def test_overlong_path_rejected():
    with pytest.raises(JournalFormatError):
        JournalCodec.encode_event(ev("/" + "a" * 70000))


def test_unicode_paths_round_trip():
    e = ev("/数据/ファイル-β")
    decoded, _ = JournalCodec.decode_event(JournalCodec.encode_event(e))
    assert decoded.path == "/数据/ファイル-β"


_paths = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    min_size=1,
    max_size=30,
).map(lambda s: "/" + s)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from([EventType.CREATE, EventType.MKDIR, EventType.UNLINK,
                             EventType.SETATTR]),
            _paths,
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=0o7777),
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
        ),
        max_size=20,
    )
)
def test_property_stream_round_trip(ops):
    events = [
        JournalEvent(op, path, ino=ino, mode=mode, mtime=mtime, seq=i)
        for i, (op, path, ino, mode, mtime) in enumerate(ops)
    ]
    assert _clean(JournalCodec.encode_stream(events)) == events


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=0, max_value=200), n=st.integers(1, 6))
def test_property_any_truncation_recovers_prefix(cut, n):
    """Truncating anywhere yields a clean prefix of the original events."""
    events = [ev(f"/f{i}", seq=i) for i in range(n)]
    data = JournalCodec.encode_stream(events)
    cut_at = max(len(JOURNAL_MAGIC) + 4, len(data) - cut)  # keep the header
    recovered = JournalCodec.scan_stream(data[:cut_at]).events
    assert recovered == events[: len(recovered)]


@settings(max_examples=40, deadline=None)
@given(garbage=st.binary(min_size=0, max_size=60), n=st.integers(0, 5))
def test_property_garbage_tail_never_corrupts_prefix(garbage, n):
    """Appending arbitrary garbage after a valid stream never loses or
    alters the already-written events under recovery decoding (the CRC
    guards each event)."""
    events = [ev(f"/f{i}", seq=i) for i in range(n)]
    data = JournalCodec.encode_stream(events) + garbage
    recovered = JournalCodec.scan_stream(data).events
    assert recovered[: len(events)] == events


@settings(max_examples=40, deadline=None)
@given(noise=st.binary(min_size=12, max_size=80))
def test_property_random_bytes_never_crash_decoder(noise):
    """Random input, bare or behind a valid header, scans to a
    (possibly empty) event list and a damage class — never raises."""
    for data in (noise, JOURNAL_MAGIC + b"\x02\x00\x00\x00" + noise):
        scan = JournalCodec.scan_stream(data)
        assert isinstance(scan.events, list)
        assert scan.damage in (
            None, "torn-tail", "segment-corrupt", "segment-reordered"
        )


def test_path_length_boundary_at_u16_max():
    # Exactly 0xFFFF encoded bytes fits the u16 length field; one more
    # must be rejected *by name* so the caller knows which field burst.
    ok = ev("/" + "a" * (0xFFFF - 1))
    decoded, _ = JournalCodec.decode_event(JournalCodec.encode_event(ok))
    assert decoded.path == ok.path
    with pytest.raises(JournalFormatError, match=r"^path too long") as exc:
        JournalCodec.encode_event(ev("/" + "a" * 0xFFFF))
    assert "65536" in str(exc.value) and "65535" in str(exc.value)


def test_target_path_length_boundary_names_the_field():
    ok = ev("/src", op=EventType.RENAME, target_path="/" + "b" * (0xFFFF - 1))
    decoded, _ = JournalCodec.decode_event(JournalCodec.encode_event(ok))
    assert decoded.target_path == ok.target_path
    with pytest.raises(JournalFormatError, match=r"^target_path too long"):
        JournalCodec.encode_event(
            ev("/src", op=EventType.RENAME, target_path="/" + "b" * 0xFFFF)
        )


def test_multibyte_path_overflow_reports_encoded_bytes():
    # The limit is on *encoded* bytes, not characters: 22k three-byte
    # characters overflow even though the character count is far below
    # the u16 ceiling, and the message reports the byte count.
    with pytest.raises(JournalFormatError, match=r"^path too long") as exc:
        JournalCodec.encode_event(ev("/" + "書" * 22000))
    assert str(1 + 3 * 22000) in str(exc.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("uid", -1),
        ("mode", 2**40),
        ("ino", 2**64),
        ("seq", -5),
        ("client_id", 2**40),
        ("size", -1),
        ("size", 2**64),
    ],
)
def test_out_of_range_field_is_a_typed_error_naming_the_field(field, value):
    # Used to surface as an untyped struct.error, from inside Global
    # Persist, long after the append that introduced the value.
    bad = ev("/a", **{field: value})
    with pytest.raises(JournalFormatError, match=rf"^{field}={value} "):
        JournalCodec.encode_event(bad)
    with pytest.raises(JournalFormatError, match=rf"^{field}="):
        JournalCodec.encode_stream([ev("/ok"), bad])


def test_widest_values_of_every_field_still_round_trip():
    e = ev("/a", ino=2**64 - 1, mode=2**32 - 1, uid=2**32 - 1,
           gid=2**32 - 1, seq=2**64 - 1, client_id=2**32 - 1,
           size=2**64 - 1)
    decoded, _ = JournalCodec.decode_event(JournalCodec.encode_event(e))
    assert decoded == e


def test_decoded_events_share_mode_and_batch_mtime():
    # One create_many batch: every event has the default mode and one
    # timestamp, and after a scan they point at one object each.
    batch = [ev(f"/d/f{i}", ino=i + 1, seq=i + 1, mtime=12.25)
             for i in range(50)]
    later = [ev("/d/g", ino=99, seq=51, mtime=13.5, mode=0o755)]
    decoded = _clean(
        JournalCodec.encode_stream(batch + later, segment_events=16)
    )
    assert decoded == batch + later  # equal to events built one by one
    assert len({id(e.mode) for e in decoded[:50]}) == 1
    assert len({id(e.mtime) for e in decoded[:16]}) == 1
    assert decoded[50].mtime == 13.5 and decoded[50].mode == 0o755


def test_shared_mtime_keeps_the_sign_of_zero():
    # 0.0 == -0.0, but they are different bytes on the wire.
    events = [ev("/a", seq=1, mtime=0.0), ev("/b", seq=2, mtime=-0.0),
              ev("/c", seq=3, mtime=0.0)]
    data = JournalCodec.encode_stream(events)
    assert JournalCodec.encode_stream(_clean(data)) == data


def test_mode_table_is_fixed_whatever_a_journal_carries():
    from repro.journal import format as codec

    before = dict(codec._MODES)
    events = [ev(f"/m/f{i}", seq=i + 1, mode=1000 + i) for i in range(10_000)]
    decoded = _clean(JournalCodec.encode_stream(events))
    assert [e.mode for e in decoded] == [1000 + i for i in range(10_000)]
    assert codec._MODES == before and len(before) == 2


def _best_scan_s(data, repeats=3):
    """Fastest of ``repeats`` verifying scans (host noise only slows)."""
    best, scan = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        scan = JournalCodec.scan_stream(data)
        best = min(best, time.perf_counter() - t0)
    return best, scan


def test_scan_cost_does_not_depend_on_segmentation():
    # The scanner used to copy the stream prefix once per event, so 64-
    # event segments (the `segment_scan` micro probe's shape; the MDS's
    # own journal dispatches 1024-event ones) scanned ~25x slower than
    # one big segment at this size.  After the in-place decoder: ~1x.
    events = [
        ev(f"/micro/f{i}", ino=i + 1, seq=i + 1) for i in range(50_000)
    ]
    segmented = JournalCodec.encode_stream(events, segment_events=64)
    single = JournalCodec.encode_stream(events, segment_events=None)
    single_s, single_scan = _best_scan_s(single)
    segmented_s, segmented_scan = _best_scan_s(segmented)
    assert single_scan.ok and segmented_scan.ok
    assert segmented_scan.events == single_scan.events == events
    assert segmented_scan.valid_segments == -(-len(events) // 64)
    assert segmented_s <= 3 * single_s, (segmented_s, single_s)
