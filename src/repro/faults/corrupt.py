"""Seeded corruption of persisted journal bytes (the crash protocol).

Persistence is a protocol, not an atomic store: a crash racing a
persist can leave the medium holding any physically possible partial
state.  This module enumerates the four states the durability drills
inject, each as a pure function of ``(clean stream bytes, seed)``:

``torn``
    The tail write stopped at an arbitrary byte of the final segment —
    the stream simply ends early, possibly mid-header.
``reorder``
    Writes reached the medium out of order: the last two segments are
    byte-swapped (a lone segment is re-written with the wrong sequence
    number instead).  Every checksum is intact; only the order is wrong.
``partial``
    The final segment's header landed but its payload did not finish;
    the payload ends at an event-frame boundary short of the header's
    ``count``.
``bitflip``
    One bit after the stream header flipped (media corruption); the
    damaged segment's checksum no longer verifies.

All draws come from a named :class:`~repro.sim.rng.RngStream`, so the
same ``(data, mode, seed)`` always produces the same corrupted bytes —
the serial/parallel byte-identity guarantee extends through injected
damage.  The injector applies the same function on every OSD replica,
which is why replicas never diverge under injected corruption.

Recovery's view of the damage is whatever
:meth:`~repro.journal.format.JournalCodec.scan_stream` salvages; the
conformance checkers hold recovered state to exactly that prefix.
"""

from __future__ import annotations

from repro.journal.format import JournalCodec, SEGMENT_HEADER_SIZE
from repro.sim.rng import RngStream

__all__ = ["PERSIST_FAULT_MODES", "corrupt_stream"]

#: Fault modes :func:`corrupt_stream` understands.
PERSIST_FAULT_MODES = ("torn", "reorder", "partial", "bitflip")


def corrupt_stream(data: bytes, mode: str, seed: int) -> bytes:
    """Return ``data`` damaged per ``mode``, deterministically in ``seed``.

    ``data`` must be a clean journal stream of the current version
    (:data:`repro.journal.format.JOURNAL_VERSION`); streams with no
    segments (header-only or empty) are returned unchanged — there is
    nothing physically there to damage.
    """
    if mode not in PERSIST_FAULT_MODES:
        raise ValueError(
            f"unknown persist fault mode {mode!r}; known: {PERSIST_FAULT_MODES}"
        )
    spans = JournalCodec.segment_spans(data)
    if not spans:
        return data
    rng = RngStream(seed, f"persist-fault/{mode}")
    if mode == "torn":
        return _torn(data, spans, rng)
    if mode == "reorder":
        return _reorder(data, spans)
    if mode == "partial":
        return _partial(data, spans, rng)
    return _bitflip(data, spans, rng)


def _torn(data: bytes, spans, rng: RngStream) -> bytes:
    """Cut the stream at a seeded byte inside the final segment."""
    start, end = spans[-1]
    cut = start + 1 + rng.integers(0, end - start - 1)
    return data[:cut]


def _reorder(data: bytes, spans) -> bytes:
    """Swap the last two segments on the medium (checksums stay valid)."""
    if len(spans) >= 2:
        (a0, a1), (b0, b1) = spans[-2], spans[-1]
        return data[:a0] + data[b0:b1] + data[a0:a1] + data[b1:]
    # A lone segment: rewrite it with the next sequence number, as if
    # the segment that should precede it was the one still in flight.
    start, end = spans[0]
    events, _ = JournalCodec._scan_events(data, start + SEGMENT_HEADER_SIZE, end)
    seq = int.from_bytes(data[start + 4 : start + 8], "little")
    return data[:start] + JournalCodec.encode_segment(seq + 1, events) + data[end:]


def _partial(data: bytes, spans, rng: RngStream) -> bytes:
    """Final segment header intact, payload cut at an event boundary."""
    start, end = spans[-1]
    payload_start = start + SEGMENT_HEADER_SIZE
    boundaries = [payload_start]
    offset = payload_start
    while offset < end:
        _, offset = JournalCodec.decode_event(data, offset)
        boundaries.append(offset)
    if len(boundaries) < 2:  # empty segment: tear the header instead
        return data[: start + SEGMENT_HEADER_SIZE // 2]
    keep = rng.integers(0, len(boundaries) - 1)  # at least one frame lost
    return data[: boundaries[keep]]


def _bitflip(data: bytes, spans, rng: RngStream) -> bytes:
    """Flip one seeded bit somewhere in the segment region."""
    lo, hi = spans[0][0], spans[-1][1]
    pos = lo + rng.integers(0, hi - lo)
    bit = rng.integers(0, 8)
    out = bytearray(data)
    out[pos] ^= 1 << bit
    return bytes(out)
