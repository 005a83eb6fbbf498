"""Write-ahead log for the on-disk KV engine.

A WAL generation *is* a ``WOJ1`` journal — same 8-byte header, same
``u32 length | u32 CRC-32 | payload`` record framing, written through
:class:`~repro.dam.journal.JournalWriter` (via the :class:`WALWriter`
subclass) and read by :func:`~repro.dam.journal.scan_journal` — so every
property the journal established (torn-tail tolerance,
kill-at-every-offset exactness, typed corruption errors) is inherited
rather than re-proven.

**Record payloads** are binary, under header version 2
(:data:`WAL_VERSION`; execution journals stay JSON version 1)::

    put   u8 1 | u64 seq | u32 len(key field) | key field | value field
    del   u8 2 | u64 seq | key field
    other u8 0 | JSON object (the ``meta`` record, anything unusual)

A *field* is one tag byte and a body: ``N`` (None, empty body), ``I``
(an int in the i64 range, 8 bytes), ``S`` (a str, its UTF-8 bytes) or
``J`` (anything else, its compact JSON text).  Decoding returns the very
dicts :func:`put_record` / :func:`delete_record` build, with JSON's
value semantics (tuples come back as lists, dict keys as str).  A
generation with any other header version raises ``bad-version``; there
is no reader for the JSON WAL of older builds.

**Generations instead of segments.**  Where a serving journal rotates by
size, the WAL rotates at *memtable flushes*: generation ``g`` holds
exactly the operations that arrived while memtable ``g`` was filling.
Files are named ``wal-<g>.log``.  A flush seals the current generation,
opens ``g+1``, and then commits a manifest pointing at ``g+1`` — after
which every record in generations ``< g+1`` is redundant with SSTable
bytes and the files are garbage.  (:class:`~repro.lsm.disk.kvstore
.KVStore` deletes them on the next open; a crash between commit and
deletion is therefore invisible.)

**Recovery rules.**  Replay reads generations ``>= manifest.wal_gen`` in
order and applies records with ``seq > manifest.last_flushed_seq``:

* only the **newest** generation may end torn (the crash signature);
  a tear in any earlier generation is corruption, because a generation
  is flushed and closed before its successor opens — the same sealing
  argument as journal segment chains;
* applied sequence numbers must be **contiguous** from
  ``last_flushed_seq + 1``: operations are assigned consecutive
  sequence numbers at the door, so a gap is evidence of a silently
  lost record and raises a typed
  :class:`~repro.util.errors.StorageCorruptionError` — never a silently
  smaller store.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path

from repro.dam.journal import (
    JournalWriter,
    REC_META,
    register_payload_decoder,
    scan_journal,
)
from repro.util.errors import StorageCorruptionError
from repro.util.fsio import resolve

#: WAL record types (alongside the journal's own ``meta``).
REC_PUT = "put"
REC_DEL = "del"

#: meta "policy" tag distinguishing KV WALs from execution journals.
WAL_POLICY = "kv-wal"

#: journal header version of a WAL generation (binary payloads).
WAL_VERSION = 2

_TAG_JSON, _TAG_PUT, _TAG_DEL = 0, 1, 2
_PUT_FIELDS = {"type", "seq", "key", "value"}
_DEL_FIELDS = {"type", "seq", "key"}
_OP = struct.Struct("<BQ")  # tag, seq
_PUT = struct.Struct("<BQI")  # tag, seq, key field length
_I64 = struct.Struct("<q")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _pack_field(value) -> bytes:
    if value is None:
        return b"N"
    if type(value) is int and _I64_MIN <= value <= _I64_MAX:
        return b"I" + _I64.pack(value)
    if type(value) is str:
        return b"S" + value.encode("utf-8", "surrogatepass")
    return b"J" + _json(value)


def _unpack_field(field: bytes):
    tag, body = field[:1], field[1:]
    if tag == b"I":
        return _I64.unpack(body)[0]
    if tag == b"S":
        return body.decode("utf-8", "surrogatepass")
    if tag == b"J":
        return json.loads(body)
    if tag == b"N" and not body:
        return None
    raise ValueError(f"bad WAL field tag {tag!r}")


def _seq_ok(record: dict) -> bool:
    seq = record.get("seq")
    return type(seq) is int and 0 <= seq < 1 << 64


def encode_wal_record(record: dict) -> bytes:
    """One WAL record's binary payload (see the module docstring)."""
    kind = record.get("type")
    if kind == REC_PUT and record.keys() == _PUT_FIELDS and _seq_ok(record):
        key = _pack_field(record["key"])
        return (_PUT.pack(_TAG_PUT, record["seq"], len(key)) + key
                + _pack_field(record["value"]))
    if kind == REC_DEL and record.keys() == _DEL_FIELDS and _seq_ok(record):
        return _OP.pack(_TAG_DEL, record["seq"]) + _pack_field(record["key"])
    return bytes((_TAG_JSON,)) + _json(record)


def decode_wal_record(payload: bytes) -> dict:
    """Inverse of :func:`encode_wal_record` (``ValueError``,
    ``IndexError`` or ``struct.error`` on bytes it never writes)."""
    tag = payload[0]
    if tag == _TAG_PUT:
        _tag, seq, size = _PUT.unpack_from(payload)
        mid = _PUT.size + size
        if mid >= len(payload):
            raise ValueError("WAL put key field runs past the payload")
        return {"type": REC_PUT, "seq": seq,
                "key": _unpack_field(payload[_PUT.size:mid]),
                "value": _unpack_field(payload[mid:])}
    if tag == _TAG_DEL:
        _tag, seq = _OP.unpack_from(payload)
        return {"type": REC_DEL, "seq": seq,
                "key": _unpack_field(payload[_OP.size:])}
    if tag == _TAG_JSON:
        record = json.loads(payload[1:])
        if isinstance(record, dict) and "type" in record:
            return record
    raise ValueError(f"bad WAL record tag {tag}")


register_payload_decoder(WAL_VERSION, decode_wal_record)


class WALWriter(JournalWriter):
    """A :class:`JournalWriter` writing binary version-2 WAL payloads."""

    version = WAL_VERSION
    encode_payload = staticmethod(encode_wal_record)


_WAL_NAME = re.compile(r"^wal-(\d{6})\.log$")


def wal_path(directory: "str | os.PathLike", gen: int) -> Path:
    """The file holding WAL generation ``gen``."""
    return Path(directory) / f"wal-{gen:06d}.log"


def wal_generations(directory: "str | os.PathLike") -> "list[tuple[int, Path]]":
    """All WAL generation files in ``directory``, ``(gen, path)`` sorted."""
    found = []
    for entry in Path(directory).iterdir():
        m = _WAL_NAME.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    return sorted(found)


def put_record(seq: int, key, value) -> dict:
    """The WAL record for one put."""
    return {"type": REC_PUT, "seq": int(seq), "key": key, "value": value}


def delete_record(seq: int, key) -> dict:
    """The WAL record for one tombstone delete."""
    return {"type": REC_DEL, "seq": int(seq), "key": key}


def open_wal(
    directory: "str | os.PathLike", gen: int, *, sync: bool = True,
    fs=None,
) -> JournalWriter:
    """Open (create) WAL generation ``gen`` for appending.

    The returned writer is a :class:`WALWriter`; callers append
    :func:`put_record` / :func:`delete_record` payloads and flush at
    their acknowledgment points.  ``fs`` overrides the filesystem
    handle (fault-injection seam; see :mod:`repro.util.fsio`).
    """
    return WALWriter(
        wal_path(directory, gen),
        meta={"policy": WAL_POLICY, "gen": int(gen)},
        sync=sync,
        fs=fs,
    )


def replay_wal(
    directory: "str | os.PathLike", *,
    from_gen: int, after_seq: int, repair: bool = True, fs=None,
) -> "tuple[list[dict], int]":
    """Replay generations ``>= from_gen``; returns ``(records, torn_bytes)``.

    ``records`` are the put/del payloads with ``seq > after_seq``, in
    sequence order, already checked for the contiguity rule.  With
    ``repair=True`` a torn tail on the newest generation is truncated
    away in place (older stale generations are left for the store's GC).
    Raises :class:`StorageCorruptionError` on a torn non-final
    generation, a sequence gap, or a generation whose header is not
    :data:`WAL_VERSION` (``bad-version``); record-level corruption
    propagates as
    the scanner's own :class:`~repro.util.errors.JournalCorruptionError`
    (a WAL generation *is* a journal).
    """
    fsh = resolve(fs)
    gens = [(g, p) for g, p in wal_generations(directory) if g >= from_gen]
    torn_total = 0
    applied: "list[dict]" = []
    expected = int(after_seq) + 1
    for i, (gen, path) in enumerate(gens):
        scan = scan_journal(path, fs=fsh)
        if scan.version not in (0, WAL_VERSION):
            raise StorageCorruptionError(
                f"{path}: WAL generation {gen} has format version "
                f"{scan.version}; this build reads only version "
                f"{WAL_VERSION}",
                path=str(path), offset=4, reason="bad-version",
            )
        last = i == len(gens) - 1
        if scan.torn_bytes and not last:
            raise StorageCorruptionError(
                f"{path}: WAL generation {gen} ends torn "
                f"({scan.torn_reason}) but generation "
                f"{gens[i + 1][0]} exists — generations are sealed "
                "before their successor opens, so this is corruption",
                path=str(path), offset=scan.valid_bytes,
                reason="wal-mid-chain-tear",
            )
        if scan.torn_bytes and last and repair:
            with fsh.open(path, "r+b") as f:
                fsh.truncate(f, scan.tail_valid_bytes)
        torn_total += scan.torn_bytes
        for rec in scan.records:
            if rec["type"] == REC_META:
                continue
            if rec["type"] not in (REC_PUT, REC_DEL):
                raise StorageCorruptionError(
                    f"{path}: unknown WAL record type {rec['type']!r}",
                    path=str(path), reason="bad-payload",
                )
            seq = int(rec["seq"])
            if seq <= after_seq:
                continue  # already durable in SSTables
            if seq != expected:
                raise StorageCorruptionError(
                    f"{path}: WAL sequence jumps to {seq}, expected "
                    f"{expected} — a record was lost without a trace",
                    path=str(path), reason="seq-gap",
                )
            expected += 1
            applied.append(rec)
    return applied, torn_total
