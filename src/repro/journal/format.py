"""Binary journal codec: checksummed segments over framed events.

Version 3 layout::

    stream  := header segment*
    header  := magic(8) version(u16) flags(u16)
    segment := smagic(4) seq(u32) count(u32) length(u32)
               pcrc(u32) hcrc(u32) payload
    payload := event*          -- `count` events, `length` bytes,
                               -- crc32(payload) == pcrc
    event   := elen(u32) ecrc(u32) body
    body    := op(u8) seq(u64) client(u32) inode path_len(u16) path
               target_len(u16) target
    inode   := ino(u64) mode(u32) uid(u32) gid(u32) size(u64) mtime(f64)

``inode`` is :data:`INODE_FIELDS`, the inode's durable fields; a
checkpoint image row carries the same fields (:data:`IMAGE_ROW`).

All integers little-endian.  ``hcrc`` covers the five header fields
before it, so a damaged segment *header* is detected independently of a
damaged *payload* — that is what lets recovery tell a torn tail (the
write stopped mid-segment, bytes simply end early) from a corrupted
interior segment (all bytes present, checksum wrong) from a reordered
write (checksums fine, segment sequence number out of order).  Real
persistence is a protocol, not an atomic store: crashes can tear,
reorder, or bit-flip what was in flight, and the FITO crash-consistency
argument is that recovery must classify — not merely truncate — such
damage.  :meth:`JournalCodec.scan_stream` is that classifier; the
conformance durability checkers hold recovery to exactly its verdict.

Per-event CRCs are retained inside payloads so a damaged segment still
yields its longest valid event prefix (CephFS journal recovery keeps
per-entry granularity the same way).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.journal.events import EventType, JournalEvent

__all__ = [
    "IMAGE_ROW",
    "INODE_FIELDS",
    "JOURNAL_MAGIC",
    "SEGMENT_MAGIC",
    "JournalFormatError",
    "JournalScan",
    "JournalCodec",
]

JOURNAL_MAGIC = b"CUDELEJ\x00"
SEGMENT_MAGIC = b"CSEG"
JOURNAL_VERSION = 3

#: An inode's durable fields in wire order, each with its ``struct``
#: code: the one list both durable layouts are built from.
INODE_FIELDS = (
    ("ino", "Q"), ("mode", "I"), ("uid", "I"), ("gid", "I"),
    ("size", "Q"), ("mtime", "d"),
)
_INODE = "".join(code for _, code in INODE_FIELDS)

_HEADER = struct.Struct("<8sHH")
_SEGMENT = struct.Struct("<4sIIII")  # smagic seq count length pcrc (hcrc follows)
_SEGMENT_HCRC = struct.Struct("<I")
_EVENT_PREFIX = struct.Struct("<II")  # length, crc32 of body
# op seq client, the inode fields, path_len
_BODY_HEAD = struct.Struct("<BQI" + _INODE + "H")
#: A checkpoint image row: the parent's inode number, the inode fields
#: and the name's length (the name follows).
IMAGE_ROW = struct.Struct("<Q" + _INODE + "H")
_U16 = struct.Struct("<H")
_NO_TARGET = _U16.pack(0)
_PREFIX_SIZE = _EVENT_PREFIX.size
_BODY_HEAD_SIZE = _BODY_HEAD.size
_EVENT_TYPES = {int(op): op for op in EventType}
#: The modes this code base itself mints (file and directory defaults):
#: a decoded event takes the shared object, not one ``int`` per frame.
#: A literal, never written to — a journal cannot grow it.
_MODES = {0o644: 0o644, 0o755: 0o755}
#: ``_BODY_HEAD`` integer fields, in wire order, and their widths, for
#: naming the one that does not fit.
_FIELD_BITS = (("seq", 64), ("client_id", 32)) + tuple(
    (name, 8 * struct.calcsize("<" + code))
    for name, code in INODE_FIELDS if code != "d"
)
_crc32 = zlib.crc32

#: Full byte size of one segment header.
SEGMENT_HEADER_SIZE = _SEGMENT.size + _SEGMENT_HCRC.size


class JournalFormatError(ValueError):
    """Raised for malformed journal streams."""


def _unencodable(event: JournalEvent) -> str:
    """Name the fixed-width field of ``event`` that ``_BODY_HEAD``
    refused (called only once ``pack`` has already failed)."""
    for name, bits in _FIELD_BITS:
        value = getattr(event, name)
        if not (isinstance(value, int) and 0 <= value < 1 << bits):
            return (
                f"{name}={value!r} does not fit the wire format "
                f"(unsigned {bits}-bit)"
            )
    return f"mtime={event.mtime!r} does not fit the wire format (float64)"


@dataclass
class JournalScan:
    """Result of a verifying scan over a journal stream.

    ``events`` is the longest checksummed-valid prefix: every event of
    every fully-valid segment, plus the leading per-event-CRC-valid
    events of the first damaged segment when the damage still lets them
    be trusted (torn tail or payload corruption — never reordering,
    where the bytes are valid but belong elsewhere in the log).
    """

    #: Recovered valid-prefix events.
    events: List[JournalEvent] = field(default_factory=list)
    #: Stream format version (0 when the header itself was unreadable).
    version: int = 0
    #: Fully-verified segments (header + payload CRC + seq order).
    valid_segments: int = 0
    #: Damage classification: ``None`` (clean), ``"torn-tail"``,
    #: ``"segment-corrupt"`` or ``"segment-reordered"``.
    damage: Optional[str] = None
    #: Byte offset where the damage was detected (``None`` when clean).
    damage_offset: Optional[int] = None
    #: Bytes covered by the fully-verified prefix (header included).
    valid_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.damage is None


class JournalCodec:
    """Stateless encoder/decoder for journal byte streams."""

    # ---- single events --------------------------------------------------
    @staticmethod
    def encode_event(event: JournalEvent) -> bytes:
        # One unpack: a field read by name costs a descriptor call each.
        # ``str.encode()`` is UTF-8 without parsing an encoding name.
        op, path, ino, mode, uid, gid, mtime, target, seq, client_id, size = event
        path_b = path.encode()
        path_len = len(path_b)
        if path_len > 0xFFFF:
            raise JournalFormatError(
                f"path too long for wire format ({path_len} bytes > "
                f"{0xFFFF})"
            )
        if target:
            target_b = target.encode()
            if len(target_b) > 0xFFFF:
                raise JournalFormatError(
                    f"target_path too long for wire format ({len(target_b)} "
                    f"bytes > {0xFFFF})"
                )
            tail = _U16.pack(len(target_b)) + target_b
        else:
            tail = _NO_TARGET
        try:
            head = _BODY_HEAD.pack(
                op, seq, client_id, ino, mode, uid, gid, size, mtime, path_len
            )
        except (struct.error, OverflowError) as exc:
            raise JournalFormatError(_unencodable(event)) from exc
        body = head + path_b + tail
        return _EVENT_PREFIX.pack(len(body), _crc32(body)) + body

    @staticmethod
    def _decode_frame(
        data: bytes,
        offset: int,
        end: int,
        last_mtime: float = 0.0,
        last_client: int = 0,
    ) -> Tuple[JournalEvent, int]:
        """Decode the event frame at ``offset``, reading in place and
        never past ``end``; returns ``(event, next_offset)``.

        The one decoder: it rejects everything bytes can get wrong (a
        frame or field overrunning its container, a CRC mismatch, bad
        UTF-8, an unknown op, a relative path, a RENAME without target)
        and builds the event without validating anything twice.

        ``last_mtime`` and ``last_client`` are the previous frame's
        timestamp and client id: an equal one is reused, so the events
        of one batch share one ``float`` and one ``int`` client id
        (decoupled ids start at 1001, past CPython's small-int cache).
        """
        body_start = offset + _PREFIX_SIZE
        if body_start > end:
            raise JournalFormatError("truncated event prefix")
        length, crc = _EVENT_PREFIX.unpack_from(data, offset)
        body_end = body_start + length
        if body_end > end:
            raise JournalFormatError("truncated event body")
        if _crc32(data[body_start:body_end]) != crc:
            raise JournalFormatError("event CRC mismatch")
        # The CRC can coincidentally match garbage (e.g. crc32(b"") == 0),
        # so the body structure is still validated defensively.
        path_start = body_start + _BODY_HEAD_SIZE
        if path_start > body_end:
            raise JournalFormatError("malformed event body: fixed fields cut")
        op, seq, client, ino, mode, uid, gid, size, mtime, path_len = (
            _BODY_HEAD.unpack_from(data, body_start)
        )
        target_start = path_start + path_len + 2
        if target_start > body_end:
            raise JournalFormatError("path overruns event body")
        # target_len is the u16 after the path, read without a call.
        target_end = target_start + (
            data[target_start - 2] | data[target_start - 1] << 8
        )
        if target_end > body_end:
            raise JournalFormatError("target overruns event body")
        try:
            path = data[path_start : target_start - 2].decode("utf-8")
            target = (
                data[target_start:target_end].decode("utf-8")
                if target_end > target_start else None
            )
        except UnicodeDecodeError as exc:
            raise JournalFormatError(f"malformed event body: {exc}") from exc
        op = _EVENT_TYPES.get(op)
        if op is None:
            raise JournalFormatError("invalid event payload: unknown op")
        if path[:1] != "/":
            raise JournalFormatError(
                f"invalid event payload: path must be absolute, got {path!r}"
            )
        if op is EventType.RENAME and not target:
            raise JournalFormatError(
                "invalid event payload: RENAME events require target_path"
            )
        if mode in _MODES:
            mode = _MODES[mode]
        # Not for zero: 0.0 == -0.0, and the sign bit must survive.
        if mtime == last_mtime and mtime:
            mtime = last_mtime
        if client == last_client:
            client = last_client
        return (
            JournalEvent.trusted(
                op, path, ino, mode, uid, gid, mtime, target, seq, client,
                size,
            ),
            body_end,
        )

    @classmethod
    def decode_event(
        cls, data: bytes, offset: int = 0
    ) -> Tuple[JournalEvent, int]:
        """Decode one event at ``offset``; returns ``(event, next_offset)``."""
        return cls._decode_frame(data, offset, len(data))

    # ---- segments -------------------------------------------------------
    @classmethod
    def encode_segment(cls, seq: int, events: Sequence[JournalEvent]) -> bytes:
        """One checksummed segment carrying ``events``."""
        if seq < 1:
            raise JournalFormatError("segment seq starts at 1")
        payload = b"".join(map(cls.encode_event, events))
        head = _SEGMENT.pack(
            SEGMENT_MAGIC, seq, len(events), len(payload), zlib.crc32(payload)
        )
        return head + _SEGMENT_HCRC.pack(zlib.crc32(head)) + payload

    @staticmethod
    def _scan_events(
        data: bytes, offset: int, end: int, limit: Optional[int] = None
    ) -> Tuple[List[JournalEvent], int]:
        """Best-effort event scan of ``[offset, end)``; stops at the
        first frame that fails its own length/CRC check."""
        events: List[JournalEvent] = []
        append = events.append
        decode = JournalCodec._decode_frame
        mtime = 0.0
        client = 0
        try:
            # `limit=None` never equals a length: the scan runs to `end`.
            while offset < end and len(events) != limit:
                event, offset = decode(data, offset, end, mtime, client)
                append(event)
                mtime = event.mtime
                client = event.client_id
        except JournalFormatError:
            pass
        return events, offset

    # ---- streams ---------------------------------------------------------
    @classmethod
    def encode_stream(
        cls,
        events: Iterable[JournalEvent],
        segment_events: Optional[int] = None,
        first_seq: int = 1,
    ) -> bytes:
        """Header plus all events, chunked into checksummed segments.

        ``segment_events`` bounds events per segment (``None`` = one
        segment carries everything); ``first_seq`` numbers the first
        segment (continuation writes pass the next unused seq).
        """
        if segment_events is not None and segment_events < 1:
            raise JournalFormatError("segment_events must be >= 1")
        evs = list(events)
        parts = [_HEADER.pack(JOURNAL_MAGIC, JOURNAL_VERSION, 0)]
        if evs:
            step = len(evs) if segment_events is None else segment_events
            for i, start in enumerate(range(0, len(evs), step)):
                parts.append(
                    cls.encode_segment(first_seq + i, evs[start : start + step])
                )
        return b"".join(parts)

    @classmethod
    def segment_spans(cls, data: bytes) -> List[Tuple[int, int]]:
        """Byte spans ``[(start, end), ...]`` of the valid segments of a
        stream of the current version (fault injection uses these to aim
        damage at physically meaningful boundaries).  Stops at the first
        damage."""
        spans: List[Tuple[int, int]] = []
        if len(data) < _HEADER.size:
            return spans
        magic, version, _ = _HEADER.unpack_from(data, 0)
        if magic != JOURNAL_MAGIC or version != JOURNAL_VERSION:
            return spans
        offset = _HEADER.size
        expected_seq = 1
        while len(data) - offset >= SEGMENT_HEADER_SIZE:
            head = data[offset : offset + _SEGMENT.size]
            (hcrc,) = _SEGMENT_HCRC.unpack_from(data, offset + _SEGMENT.size)
            smagic, seq, _count, length, _pcrc = _SEGMENT.unpack_from(data, offset)
            if smagic != SEGMENT_MAGIC or zlib.crc32(head) != hcrc:
                break
            if seq != expected_seq:
                break
            end = offset + SEGMENT_HEADER_SIZE + length
            if end > len(data):
                break
            spans.append((offset, end))
            expected_seq += 1
            offset = end
        return spans

    @classmethod
    def scan_stream(cls, data: bytes) -> JournalScan:
        """Verifying scan: valid-prefix events plus damage classification.

        Never raises on damage — a completely unreadable stream header
        is itself classified (``damage="segment-corrupt"``, no events).
        This is the recovery entry point: what it returns is exactly
        what a recovering component may trust.
        """
        scan = JournalScan()
        if len(data) < _HEADER.size:
            scan.damage = "torn-tail" if data else None
            scan.damage_offset = 0 if data else None
            return scan
        magic, version, _ = _HEADER.unpack_from(data, 0)
        if magic != JOURNAL_MAGIC:
            scan.damage = "segment-corrupt"
            scan.damage_offset = 0
            return scan
        scan.version = version
        if version != JOURNAL_VERSION:
            scan.damage = "segment-corrupt"
            scan.damage_offset = 0
            return scan
        offset = _HEADER.size
        scan.valid_bytes = offset
        expected_seq = 1
        view = memoryview(data)  # whole-payload CRCs without a copy
        while offset < len(data):
            remaining = len(data) - offset
            if remaining < SEGMENT_HEADER_SIZE:
                scan.damage = "torn-tail"
                scan.damage_offset = offset
                events, _ = cls._scan_events(data, offset, len(data))
                # A few raw bytes can't frame an event, but try anyway:
                # a torn header may still lead with whole event frames
                # only when the tear landed exactly on a frame boundary.
                scan.events.extend(events)
                return scan
            head = data[offset : offset + _SEGMENT.size]
            (hcrc,) = _SEGMENT_HCRC.unpack_from(data, offset + _SEGMENT.size)
            smagic, seq, count, length, pcrc = _SEGMENT.unpack_from(data, offset)
            if smagic != SEGMENT_MAGIC or zlib.crc32(head) != hcrc:
                # Header bytes themselves are damaged: with nothing
                # after them this is a torn header, otherwise interior
                # corruption.  Either way the length field is garbage,
                # so salvage leading event frames and stop.
                scan.damage = (
                    "torn-tail"
                    if remaining <= SEGMENT_HEADER_SIZE
                    else "segment-corrupt"
                )
                scan.damage_offset = offset
                events, _ = cls._scan_events(
                    data, offset + SEGMENT_HEADER_SIZE, len(data)
                )
                if scan.damage == "segment-corrupt":
                    scan.events.extend(events)
                return scan
            if seq != expected_seq:
                scan.damage = "segment-reordered"
                scan.damage_offset = offset
                return scan
            payload_start = offset + SEGMENT_HEADER_SIZE
            if len(data) - payload_start < length:
                # The segment header landed but its payload did not
                # finish: a torn (or deliberately partial) tail write.
                scan.damage = "torn-tail"
                scan.damage_offset = offset
                events, _ = cls._scan_events(
                    data, payload_start, len(data), limit=count
                )
                scan.events.extend(events)
                return scan
            payload_end = payload_start + length
            if _crc32(view[payload_start:payload_end]) != pcrc:
                scan.damage = "segment-corrupt"
                scan.damage_offset = offset
                events, _ = cls._scan_events(
                    data, payload_start, payload_end, limit=count
                )
                scan.events.extend(events)
                return scan
            events, end = cls._scan_events(
                data, payload_start, payload_end, limit=count
            )
            if len(events) != count or end != payload_end:
                # Payload CRC matched but the framing inside is wrong
                # (possible only via a colliding CRC or an encoder bug).
                scan.damage = "segment-corrupt"
                scan.damage_offset = offset
                scan.events.extend(events)
                return scan
            scan.events.extend(events)
            scan.valid_segments += 1
            expected_seq += 1
            offset = payload_end
            scan.valid_bytes = offset
        return scan
