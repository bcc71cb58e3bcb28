"""Property tests: the verifying scan under arbitrary seeded damage.

The recovery contract the conformance tier leans on, stated as
invariants and hammered by Hypothesis:

* the scan never raises, whatever the damage;
* whatever it salvages is a *prefix* of the events that were encoded —
  damage may shorten recovery but can never reorder it, fabricate
  events, or resurrect anything past the first invalid segment;
* the fault injector's :func:`~repro.faults.corrupt.corrupt_stream` is
  a pure function of ``(data, mode, seed)`` — the serial/parallel
  byte-identity guarantee for the corruption drill;
* an undamaged stream scans clean: every event back, no damage report;
* damage *inside* a segment whose own checksums were re-sealed (inner
  event CRC, ``elen``, header ``count``) is pinned to one exact verdict,
  so a rewrite of the scanner cannot move it;
* arbitrary bytes never raise and never hang; a truncated frame is
  always a :class:`JournalFormatError`.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.corrupt import PERSIST_FAULT_MODES, corrupt_stream
from repro.journal.events import EventType, JournalEvent
from repro.journal.format import (
    SEGMENT_HEADER_SIZE,
    JournalCodec,
    JournalFormatError,
)

pytestmark = pytest.mark.faults


def _events(n):
    return [
        JournalEvent(EventType.CREATE, f"/p/f{i}", ino=i + 1, mtime=float(i),
                     seq=i + 1, client_id=7)
        for i in range(n)
    ]


def _is_prefix(got, of):
    return got == of[: len(got)]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    seg=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(PERSIST_FAULT_MODES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_every_fault_mode_salvages_a_prefix(n, seg, mode, seed):
    events = _events(n)
    data = JournalCodec.encode_stream(events, segment_events=seg)
    damaged = corrupt_stream(data, mode, seed)
    scan = JournalCodec.scan_stream(damaged)
    assert _is_prefix(scan.events, events)
    if scan.damage is None:
        assert scan.events == events


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    seg=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(PERSIST_FAULT_MODES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_corrupt_stream_is_deterministic(n, seg, mode, seed):
    data = JournalCodec.encode_stream(_events(n), segment_events=seg)
    assert corrupt_stream(data, mode, seed) == corrupt_stream(data, mode, seed)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    seg=st.integers(min_value=1, max_value=6),
    cut=st.integers(min_value=0, max_value=4000),
)
def test_property_any_truncation_scans_to_a_prefix(n, seg, cut):
    events = _events(n)
    data = JournalCodec.encode_stream(events, segment_events=seg)
    scan = JournalCodec.scan_stream(data[: max(0, len(data) - cut)])
    assert _is_prefix(scan.events, events)
    if cut:
        assert scan.damage in (None, "torn-tail")


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    seg=st.integers(min_value=1, max_value=6),
    pos=st.integers(min_value=0, max_value=2**31 - 1),
    bit=st.integers(min_value=0, max_value=7),
)
def test_property_any_bit_flip_scans_to_a_prefix(n, seg, pos, bit):
    events = _events(n)
    data = bytearray(JournalCodec.encode_stream(events, segment_events=seg))
    data[pos % len(data)] ^= 1 << bit
    scan = JournalCodec.scan_stream(bytes(data))
    assert _is_prefix(scan.events, events)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    i=st.integers(min_value=0, max_value=2**31 - 1),
    j=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_segment_swap_never_reorders_salvage(n, i, j):
    # One event per segment, two distinct segments swapped wholesale:
    # the scan must stop at the first out-of-order segment, never
    # splicing the moved events back into the wrong place.
    events = _events(n)
    data = JournalCodec.encode_stream(events, segment_events=1)
    spans = JournalCodec.segment_spans(data)
    assert len(spans) == n
    a, b = sorted({i % n, j % n} | {0, n - 1})[:2] if i % n == j % n else \
        sorted((i % n, j % n))
    (a0, a1), (b0, b1) = spans[a], spans[b]
    swapped = (data[:a0] + data[b0:b1] + data[a1:b0] + data[a0:a1]
               + data[b1:])
    scan = JournalCodec.scan_stream(swapped)
    assert _is_prefix(scan.events, events)
    assert len(scan.events) <= a
    assert scan.damage == "segment-reordered"


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    k=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_duplicated_segment_is_rejected(n, k):
    # Replaying a segment (same bytes, stale seq) must not double-apply
    # its events: the scan keeps everything before the duplicate and
    # flags the replay as reordering.
    events = _events(n)
    data = JournalCodec.encode_stream(events, segment_events=1)
    spans = JournalCodec.segment_spans(data)
    d0, d1 = spans[k % n]
    dup = data[: d1] + data[d0:d1] + data[d1:]
    scan = JournalCodec.scan_stream(dup)
    assert scan.events == events[: (k % n) + 1]
    assert scan.damage == "segment-reordered"


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=24),
    seg=st.integers(min_value=1, max_value=8),
)
def test_property_clean_stream_round_trips_byte_identically(n, seg):
    events = _events(n)
    data = JournalCodec.encode_stream(events, segment_events=seg)
    scan = JournalCodec.scan_stream(data)
    assert scan.ok
    assert scan.damage is None
    assert scan.events == events
    assert scan.valid_bytes == len(data)
    assert JournalCodec.encode_stream(scan.events, segment_events=seg) == data


def _reseal(data, start, count=None):
    """Recompute segment ``start``'s payload and header CRCs over its
    (tampered) bytes, optionally lying about ``count``: the damage now
    hides behind valid segment checksums."""
    smagic, seq, old_count, length, _ = struct.unpack_from("<4sIIII", data, start)
    payload = bytes(data[start + SEGMENT_HEADER_SIZE:
                         start + SEGMENT_HEADER_SIZE + length])
    head = struct.pack(
        "<4sIIII", smagic, seq, old_count if count is None else count,
        length, zlib.crc32(payload),
    )
    data[start: start + SEGMENT_HEADER_SIZE] = head + struct.pack(
        "<I", zlib.crc32(head)
    )


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    seg=st.integers(min_value=1, max_value=8),
    pick=st.integers(min_value=0, max_value=2**31 - 1),
    kind=st.sampled_from(
        ["event-crc", "elen-long", "elen-short", "count-high", "count-low"]
    ),
)
def test_property_resealed_inner_damage_has_one_verdict(n, seg, pick, kind):
    events = _events(n)
    data = bytearray(JournalCodec.encode_stream(events, segment_events=seg))
    spans = JournalCodec.segment_spans(bytes(data))
    k = pick % len(spans)
    start, end = spans[k]
    in_segment = events[k * seg: (k + 1) * seg]
    # Frame offsets of this segment's events.
    frames, offset = [], start + SEGMENT_HEADER_SIZE
    while offset < end:
        frames.append(offset)
        _, offset = JournalCodec.decode_event(bytes(data), offset)
    j = (pick // len(spans)) % len(frames)
    if kind == "event-crc":
        data[frames[j] + 8] ^= 0x01  # first body byte; event CRC now wrong
        _reseal(data, start)
        salvaged = j
    elif kind in ("elen-long", "elen-short"):
        (elen,) = struct.unpack_from("<I", data, frames[j])
        struct.pack_into(
            "<I", data, frames[j], elen + (1 if kind == "elen-long" else -1)
        )
        _reseal(data, start)
        salvaged = j
    elif kind == "count-high":
        _reseal(data, start, count=len(in_segment) + 1)
        salvaged = len(in_segment)
    else:
        _reseal(data, start, count=len(in_segment) - 1)
        salvaged = len(in_segment) - 1
    scan = JournalCodec.scan_stream(bytes(data))
    assert scan.damage == "segment-corrupt"
    assert scan.damage_offset == start
    assert scan.valid_segments == k
    assert scan.valid_bytes == start
    assert scan.events == events[: k * seg + salvaged]


@settings(max_examples=200, deadline=None)
@given(noise=st.binary(max_size=400), after_header=st.booleans())
def test_property_arbitrary_bytes_never_raise(noise, after_header):
    header = JournalCodec.encode_stream([])
    data = header + noise if after_header else noise
    scan = JournalCodec.scan_stream(data)  # returning at all is the check
    assert scan.valid_bytes <= len(data)
    if after_header and noise:
        assert scan.damage is not None and scan.damage_offset == len(header)
    # Whatever was salvaged passed the constructor's own checks.
    for event in scan.events:
        assert JournalEvent(**event._asdict()) == event


@settings(max_examples=60, deadline=None)
@given(
    path=st.text(min_size=0, max_size=12).map(lambda s: "/" + s),
    target=st.one_of(st.none(), st.text(min_size=1, max_size=12)),
)
def test_property_every_frame_prefix_is_a_format_error(path, target):
    op = EventType.RENAME if target else EventType.CREATE
    frame = JournalCodec.encode_event(
        JournalEvent(op, path, ino=9, target_path=target, seq=3)
    )
    for cut in range(len(frame)):
        with pytest.raises(JournalFormatError):
            JournalCodec.decode_event(frame[:cut])
    assert JournalCodec.decode_event(frame)[1] == len(frame)


_INT_FIELDS = ("ino", "mode", "uid", "gid", "seq", "client_id")
_any_int = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),  # fits every field
    st.integers(),
    st.sampled_from([-1, 2**32, 2**64 - 1, 2**64]),
)


@settings(max_examples=200, deadline=None)
@given(values=st.tuples(*[_any_int] * len(_INT_FIELDS)))
def test_property_any_integer_field_round_trips_or_is_a_format_error(values):
    # `trusted`: the question is what the codec does with a value the
    # constructor never saw (it only checks `ino >= 0`).
    fields = dict(zip(_INT_FIELDS, values))
    event = JournalEvent.trusted(
        EventType.CREATE, "/p/f", fields["ino"], fields["mode"],
        fields["uid"], fields["gid"], 1.5, None, fields["seq"],
        fields["client_id"],
    )
    try:
        frame = JournalCodec.encode_event(event)
    except JournalFormatError as exc:
        widths = {"ino": 64, "seq": 64}
        misfits = [
            name for name in _INT_FIELDS
            if not 0 <= fields[name] < 1 << widths.get(name, 32)
        ]
        assert misfits and str(exc).split("=")[0] in misfits
    else:
        assert JournalCodec.decode_event(frame) == (event, len(frame))
