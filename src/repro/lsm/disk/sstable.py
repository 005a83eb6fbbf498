"""On-disk SSTable format: checksummed blocks, bloom filter, sparse index.

An SSTable file is an immutable sorted run, written once through
:func:`repro.util.atomic.atomic_write_bytes` (tmp + fsync + rename) so
it exists either completely or not at all — a half-written run is
impossible by construction, which is why SSTable creation needs no
torn-tail rule of its own.  The threats that remain are *in-place*
damage (bit rot, misdirected writes), and every region of the file is
independently CRC-32 checksummed so damage is detected at read time,
localized to a block, and surfaced as a typed
:class:`~repro.util.errors.StorageCorruptionError` — never a silently
wrong value.

File layout (all integers little-endian)::

    header   b"WSST" + u32 version (3)                      (8 bytes)
    blocks   repeat: u32 len | u32 CRC-32 | payload         (packed rows)
    bloom    u32 len | u32 CRC-32 | u64 m | u8 k | m/8 bit bytes
    index    u32 len | u32 CRC-32 | payload                 (packed block map)
    footer   u64 bloom_off | u64 index_off | u64 n_entries
             | u32 CRC-32 of the previous 24 bytes | b"TSSW" (32 bytes)

A block holds up to ``block_entries`` ``(key, seq, kind, value)`` rows
(``kind``: 0 = put, 1 = tombstone), sorted by key, unique keys per
file, stored column by column so each column decodes in one C-level
``struct`` call::

    u32 n | u64 seq_base | u8 seq width
    keys     u8 width | n key lengths | concatenated UTF-8 key bytes
             (or u8 0xFF | u32 len | JSON list, when a key is not a str)
    seqs     n deltas from seq_base at the seq width
    kinds    n bytes: kind | 2 if the value is None
    values   u8 width | i64 base | one delta per non-None value
             (or u8 0xFF | JSON list of all n values, when a value is
             neither None nor an int in the i64 range)

A width byte 0-3 selects 1, 2, 4 or 8 bytes per number — the narrowest
that fits the column.  The index is ``u32 count``, then the blocks' u64
offsets, u32 lengths and u32 row counts (a column each), then their
first and last keys as one key column; a point read touches the footer,
index, bloom, and exactly one data block.  The bloom filter (double
hashing over the two 64-bit halves of one BLAKE2b digest of each key's
JSON text, 10 bits per key) makes a negative probe cost zero block
reads — the read/write asymmetry the paper's model charges for, now in
real bytes.  Version 3 changed only the bloom hash, so the bits of a
version 2 file are meaningless to this build: reading one would report
present keys absent, which is why it raises ``bad-version``.

A payload that passes its CRC but does not decode (wrong lengths, an
unknown width, bad UTF-8 or JSON) raises the same typed error as a CRC
failure: ``bad-block``, ``bad-index`` or ``bad-bloom``.  A file of any
other format version raises ``bad-version``; there is no reader for
older versions.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import struct
import zlib
from dataclasses import dataclass
from hashlib import blake2b
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path

from repro.util.atomic import atomic_write_bytes
from repro.util.errors import InvalidInstanceError, StorageCorruptionError
from repro.util.fsio import resolve

SST_MAGIC = b"WSST"
SST_VERSION = 3
_U32 = struct.Struct("<I")
_SST_HEADER = SST_MAGIC + _U32.pack(SST_VERSION)
_SECTION = struct.Struct("<II")  # payload length, CRC-32
_FOOTER = struct.Struct("<QQQI4s")  # bloom_off, index_off, n_entries, crc, magic
FOOTER_MAGIC = b"TSSW"
_BLOCK_HEAD = struct.Struct("<IQB")  # rows, seq base, seq width
_VALUE_BASE = struct.Struct("<q")
_BLOOM_HEAD = struct.Struct("<QB")  # m bits, k hashes
_BLOOM_HASH = struct.Struct("<QQ")  # h1, h2: halves of one digest

#: entry kinds on disk.
KIND_PUT = 0
KIND_TOMBSTONE = 1

#: ``struct`` codes of the 1-, 2-, 4- and 8-byte column widths.
_WIDTHS = "BHIQ"
#: width byte of a column stored as a JSON list instead.
_JSON = 0xFF
#: kinds-column flag: the row's value is None.
_NONE = 2
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
#: what a payload that passes its CRC but does not decode raises.
_DECODE_ERRORS = (ValueError, IndexError, struct.error)


def _key_bytes(key) -> bytes:
    """The bloom hash input: the key's compact JSON text."""
    if type(key) is str:
        # Exactly json.dumps(key) for a str, without the encoder setup.
        return encode_basestring_ascii(key).encode("ascii")
    return json.dumps(key, separators=(",", ":")).encode("utf-8")


def _json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _json_list(text: bytes, n: int) -> list:
    items = json.loads(text)
    if type(items) is not list or len(items) != n:
        raise ValueError(f"expected a JSON list of {n} item(s)")
    return items


def _width(top: int) -> int:
    """The narrowest width code whose unsigned numbers reach ``top``."""
    return (top >= 1 << 8) + (top >= 1 << 16) + (top >= 1 << 32)


def _pack_uints(out: bytearray, code: int, numbers: list) -> None:
    out += struct.pack(f"<{len(numbers)}{_WIDTHS[code]}", *numbers)


def _unpack_uints(buf: bytes, off: int, code: int, n: int):
    fmt = f"<{n}{_WIDTHS[code]}"
    return struct.unpack_from(fmt, buf, off), off + struct.calcsize(fmt)


def _pack_keys(out: bytearray, keys: list) -> None:
    """Key column: lengths + UTF-8 bytes, or JSON if a key is not a str."""
    if all(type(k) is str for k in keys):
        raw = [k.encode("utf-8", "surrogatepass") for k in keys]
        lengths = [len(r) for r in raw]
        code = _width(max(lengths, default=0))
        out.append(code)
        _pack_uints(out, code, lengths)
        out += b"".join(raw)
    else:
        text = _json(keys)
        out.append(_JSON)
        out += _U32.pack(len(text)) + text


def _unpack_keys(buf: bytes, off: int, n: int) -> "tuple[list, int]":
    code = buf[off]
    if code == _JSON:
        (size,) = _U32.unpack_from(buf, off + 1)
        off += 1 + _U32.size
        return _json_list(buf[off:off + size], n), off + size
    lengths, off = _unpack_uints(buf, off + 1, code, n)
    bounds = list(accumulate(lengths, initial=0))
    blob = buf[off:off + bounds[-1]]
    if len(blob) != bounds[-1]:
        raise ValueError("key bytes run past the payload")
    # ASCII keys slice one decoded text (one char per byte).
    text = blob.decode("ascii") if blob.isascii() else blob
    keys = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    if text is blob:
        keys = [k.decode("utf-8", "surrogatepass") for k in keys]
    return keys, off + len(blob)


def _encode_block(rows: "list[tuple]") -> bytes:
    seqs = [int(r[1]) for r in rows]
    values = [r[3] for r in rows]
    base = min(seqs)
    code = _width(max(seqs) - base)
    out = bytearray(_BLOCK_HEAD.pack(len(rows), base, code))
    _pack_keys(out, [r[0] for r in rows])
    _pack_uints(out, code, [s - base for s in seqs])
    out += bytes(
        int(r[2]) | (_NONE if v is None else 0) for r, v in zip(rows, values)
    )
    ints = [v for v in values if v is not None]
    if all(type(v) is int and _I64_MIN <= v <= _I64_MAX for v in ints):
        low = min(ints, default=0)
        vcode = _width(max(ints, default=0) - low)
        out.append(vcode)
        out += _VALUE_BASE.pack(low)
        _pack_uints(out, vcode, [v - low for v in ints])
    else:
        out.append(_JSON)
        out += _json(values)
    return bytes(out)


def _decode_block(buf: bytes) -> "tuple[list, list, list, list]":
    """``(keys, seqs, kinds, values)`` columns of one block payload."""
    n, base, code = _BLOCK_HEAD.unpack_from(buf)
    keys, off = _unpack_keys(buf, _BLOCK_HEAD.size, n)
    deltas, off = _unpack_uints(buf, off, code, n)
    flags = buf[off:off + n]
    if len(flags) != n or flags.translate(None, b"\0\1\2\3"):
        raise ValueError("bad kinds column")
    off += n
    if buf[off] == _JSON:
        values = _json_list(buf[off + 1:], n)
    else:
        (low,) = _VALUE_BASE.unpack_from(buf, off + 1)
        present = n - flags.count(2) - flags.count(3)
        ints, end = _unpack_uints(
            buf, off + 1 + _VALUE_BASE.size, buf[off], present)
        if end != len(buf):
            raise ValueError("trailing bytes after the values column")
        it = iter(ints)
        values = [None if f & _NONE else low + next(it) for f in flags]
    return keys, [base + d for d in deltas], [f & 1 for f in flags], values


def _encode_index(index: "list[tuple]") -> bytes:
    count = len(index)
    out = bytearray(_U32.pack(count))
    out += struct.pack(
        f"<{count}Q{2 * count}I",
        *(b[0] for b in index), *(b[1] for b in index),
        *(b[2] for b in index),
    )
    _pack_keys(out, [k for b in index for k in (b[3], b[4])])
    return bytes(out)


def _decode_index(buf: bytes) -> "list[list]":
    """``[offset, length, n, first_key, last_key]`` per block."""
    (count,) = _U32.unpack_from(buf)
    fmt = f"<{count}Q{2 * count}I"
    nums = struct.unpack_from(fmt, buf, _U32.size)
    keys, off = _unpack_keys(buf, _U32.size + struct.calcsize(fmt),
                             2 * count)
    if off != len(buf):
        raise ValueError("trailing bytes after the index")
    return [
        [nums[i], nums[count + i], nums[2 * count + i],
         keys[2 * i], keys[2 * i + 1]]
        for i in range(count)
    ]


class BloomFilter:
    """A classic m-bit, k-hash bloom filter over JSON-encoded keys.

    Kirsch–Mitzenmacher double hashing: position ``i`` of a key is
    ``(h1 + i * h2) mod m``, with ``h1`` and ``h2`` (forced odd) the two
    little-endian 64-bit halves of one 16-byte BLAKE2b digest of the
    key's JSON text.  The halves are independent, so ``k`` probes cost
    one digest and behave like ``k`` hashes; the digest is deterministic
    across processes (no ``PYTHONHASHSEED`` exposure).
    """

    def __init__(self, m_bits: int, k_hashes: int,
                 bits: "bytearray | None" = None) -> None:
        if m_bits < 8 or k_hashes < 1:
            raise InvalidInstanceError(
                f"bloom needs m_bits >= 8, k_hashes >= 1, got "
                f"{m_bits}, {k_hashes}"
            )
        self.m = int(m_bits)
        self.k = int(k_hashes)
        self.bits = bits if bits is not None else bytearray(-(-self.m // 8))

    @classmethod
    def for_entries(cls, n: int, bits_per_key: int = 10) -> "BloomFilter":
        m = max(64, n * bits_per_key)
        k = max(1, min(16, round(0.6931 * m / max(1, n))))
        return cls(m, k)

    def _probe(self, key) -> "tuple[int, int]":
        """First bit position and stride of ``key``, both mod ``m``."""
        h1, h2 = _BLOOM_HASH.unpack(blake2b(_key_bytes(key),
                                            digest_size=16).digest())
        return h1 % self.m, (h2 | 1) % self.m

    def add(self, key) -> None:
        pos, step = self._probe(key)
        m, bits = self.m, self.bits
        for _ in range(self.k):
            bits[pos >> 3] |= 1 << (pos & 7)
            pos = (pos + step) % m

    def __contains__(self, key) -> bool:
        pos, step = self._probe(key)
        m, bits = self.m, self.bits
        for _ in range(self.k):
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
            pos = (pos + step) % m
        return True

    def to_payload(self) -> bytes:
        return _BLOOM_HEAD.pack(self.m, self.k) + bytes(self.bits)

    @classmethod
    def from_payload(cls, payload: bytes) -> "BloomFilter":
        m, k = _BLOOM_HEAD.unpack_from(payload)
        bits = bytearray(payload[_BLOOM_HEAD.size:])
        if m < 8 or k < 1 or len(bits) != -(-m // 8):
            raise ValueError(f"bloom payload does not hold {m} bit(s)")
        return cls(m, k, bits)


@dataclass(frozen=True)
class SSTableMeta:
    """What the manifest records about one SSTable file."""

    name: str
    file_id: int
    entries: int
    tombstones: int
    min_key: object
    max_key: object
    min_seq: int
    max_seq: int
    blocks: int

    def to_payload(self) -> dict:
        return {
            "name": self.name, "id": self.file_id,
            "entries": self.entries, "tombstones": self.tombstones,
            "min_key": self.min_key, "max_key": self.max_key,
            "min_seq": self.min_seq, "max_seq": self.max_seq,
            "blocks": self.blocks,
        }

    @classmethod
    def from_payload(cls, p: dict) -> "SSTableMeta":
        return cls(
            name=str(p["name"]), file_id=int(p["id"]),
            entries=int(p["entries"]), tombstones=int(p["tombstones"]),
            min_key=p["min_key"], max_key=p["max_key"],
            min_seq=int(p["min_seq"]), max_seq=int(p["max_seq"]),
            blocks=int(p["blocks"]),
        )

    def overlaps(self, other: "SSTableMeta") -> bool:
        """True iff the key ranges of the two files intersect."""
        if self.entries == 0 or other.entries == 0:
            return False
        return not (
            self.max_key < other.min_key or other.max_key < self.min_key
        )

    def overlaps_range(self, lo, hi) -> bool:
        if self.entries == 0:
            return False
        return not (self.max_key < lo or hi < self.min_key)


def _section(payload: bytes) -> bytes:
    return _SECTION.pack(len(payload), zlib.crc32(payload)) + payload


def sstable_name(file_id: int) -> str:
    """Canonical file name for SSTable ``file_id``."""
    return f"sst-{file_id:06d}.sst"


def write_sstable(
    directory: "str | os.PathLike", file_id: int,
    entries: "list[tuple]", *,
    block_entries: int = 64, bloom_bits_per_key: int = 10,
    fs=None,
) -> SSTableMeta:
    """Write ``entries`` as SSTable ``file_id``; returns its manifest meta.

    ``entries`` are ``(key, seq, kind, value)`` rows sorted strictly by
    key (unique keys — the caller merges versions before writing).  The
    file appears atomically; a kill at any byte of the write leaves no
    trace under the final name.
    """
    if block_entries < 1:
        raise InvalidInstanceError(
            f"block_entries must be >= 1, got {block_entries}"
        )
    keys = [e[0] for e in entries]
    if any(not keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
        raise InvalidInstanceError(
            "SSTable entries must be strictly sorted by key"
        )
    if any(
        e[2] not in (KIND_PUT, KIND_TOMBSTONE) or not 0 <= e[1] < 1 << 64
        for e in entries
    ):
        raise InvalidInstanceError(
            "SSTable entries need kind 0 or 1 and a sequence number "
            "in [0, 2**64)"
        )
    bloom = BloomFilter.for_entries(len(entries), bloom_bits_per_key)
    blob = bytearray(_SST_HEADER)
    index: "list[tuple]" = []
    for start in range(0, len(entries), block_entries):
        piece = entries[start:start + block_entries]
        offset = len(blob)
        blob += _section(_encode_block(piece))
        index.append(
            (offset, len(blob) - offset, len(piece),
             piece[0][0], piece[-1][0])
        )
    for k in keys:
        bloom.add(k)
    bloom_off = len(blob)
    blob += _section(bloom.to_payload())
    index_off = len(blob)
    blob += _section(_encode_index(index))
    packed = struct.pack("<QQQ", bloom_off, index_off, len(entries))
    blob += packed + struct.pack("<I", zlib.crc32(packed)) + FOOTER_MAGIC
    name = sstable_name(file_id)
    atomic_write_bytes(Path(directory) / name, bytes(blob), fs=fs)
    seqs = [int(e[1]) for e in entries]
    return SSTableMeta(
        name=name, file_id=int(file_id),
        entries=len(entries),
        tombstones=sum(1 for e in entries if e[2] == KIND_TOMBSTONE),
        min_key=entries[0][0] if entries else None,
        max_key=entries[-1][0] if entries else None,
        min_seq=min(seqs) if seqs else 0,
        max_seq=max(seqs) if seqs else 0,
        blocks=len(index),
    )


@dataclass(frozen=True)
class BlockFinding:
    """One damaged region a verify pass located."""

    path: str
    #: block index (-1: the failure is structural — footer/index/bloom).
    block: int
    offset: int
    reason: str
    #: key range the damage covers (from the index; None if unknown).
    first_key: object = None
    last_key: object = None
    #: entries the damaged region held (0 if unknown).
    entries_lost: int = 0


class SSTableReader:
    """Random access over one SSTable file, verifying CRCs as it reads.

    The footer, index, and bloom filter are read and verified once at
    open; data blocks are read from disk per probe and verified each
    time (bit rot between scrubs must never return a wrong value).
    Structural damage raises :class:`StorageCorruptionError` at open;
    block damage raises at the probe that touches the block.
    """

    def __init__(self, path: "str | os.PathLike", *, fs=None) -> None:
        self.path = Path(path)
        self._fs = fs
        data = resolve(fs).read_bytes(self.path)
        self._size = len(data)
        if len(data) < len(_SST_HEADER) + _FOOTER.size:
            raise StorageCorruptionError(
                f"{self.path}: {len(data)} byte(s) is too short to be an "
                "SSTable",
                path=str(self.path), offset=0, reason="bad-footer",
            )
        if data[:len(SST_MAGIC)] != SST_MAGIC:
            raise StorageCorruptionError(
                f"{self.path}: bad SSTable header {data[:8]!r}",
                path=str(self.path), offset=0, reason="bad-magic",
            )
        (version,) = _U32.unpack_from(data, len(SST_MAGIC))
        if version != SST_VERSION:
            raise StorageCorruptionError(
                f"{self.path}: SSTable format version {version}; this "
                f"build reads only version {SST_VERSION}",
                path=str(self.path), offset=len(SST_MAGIC),
                reason="bad-version",
            )
        foot = data[-_FOOTER.size:]
        bloom_off, index_off, n_entries, crc, magic = _FOOTER.unpack(foot)
        if magic != FOOTER_MAGIC or zlib.crc32(foot[:24]) != crc:
            raise StorageCorruptionError(
                f"{self.path}: SSTable footer fails its checksum",
                path=str(self.path), offset=self._size - _FOOTER.size,
                reason="bad-footer",
            )
        self.n_entries = int(n_entries)
        index_payload = self._read_section(data, index_off, "bad-index")
        try:
            self._index = _decode_index(index_payload)
            if any(not len(_SST_HEADER) <= off <= off + size <= bloom_off
                   for off, size, *_ in self._index):
                raise ValueError("index points outside the data blocks")
        except _DECODE_ERRORS:
            raise StorageCorruptionError(
                f"{self.path}: SSTable index does not decode",
                path=str(self.path), offset=index_off, reason="bad-index",
            ) from None
        bloom_payload = self._read_section(data, bloom_off, "bad-bloom")
        try:
            self._bloom = BloomFilter.from_payload(bloom_payload)
        except _DECODE_ERRORS:
            raise StorageCorruptionError(
                f"{self.path}: SSTable bloom filter does not decode",
                path=str(self.path), offset=bloom_off, reason="bad-bloom",
            ) from None
        #: data block reads this reader performed (bloom effectiveness).
        self.block_reads = 0

    def _read_section(self, data: bytes, offset: int, reason: str) -> bytes:
        if not (len(_SST_HEADER) <= offset <= len(data) - _SECTION.size):
            raise StorageCorruptionError(
                f"{self.path}: section offset {offset} outside file",
                path=str(self.path), offset=offset, reason=reason,
            )
        length, crc = _SECTION.unpack_from(data, offset)
        end = offset + _SECTION.size + length
        if end > len(data):
            raise StorageCorruptionError(
                f"{self.path}: section at {offset} extends past end of file",
                path=str(self.path), offset=offset, reason=reason,
            )
        payload = data[offset + _SECTION.size:end]
        if zlib.crc32(payload) != crc:
            raise StorageCorruptionError(
                f"{self.path}: section at byte {offset} fails its CRC-32",
                path=str(self.path), offset=offset, reason=reason,
            )
        return payload

    def may_contain(self, key) -> bool:
        """Bloom probe: False means definitely absent (no block read)."""
        return key in self._bloom

    def _read_block(self, i: int) -> "tuple[list, list, list, list]":
        """Block ``i`` as verified ``(keys, seqs, kinds, values)`` columns."""
        offset, length, n, _fk, _lk = self._index[i]
        fsh = resolve(self._fs)
        with fsh.open(self.path, "rb") as f:
            f.seek(offset)
            data = fsh.read(f, length)
        self.block_reads += 1
        if len(data) != length or length < _SECTION.size:
            raise StorageCorruptionError(
                f"{self.path}: block {i} at byte {offset} is truncated",
                path=str(self.path), offset=offset, reason="bad-block",
            )
        length_field, crc = _SECTION.unpack_from(data, 0)
        payload = data[_SECTION.size:]
        if length_field != len(payload) or zlib.crc32(payload) != crc:
            raise StorageCorruptionError(
                f"{self.path}: block {i} at byte {offset} fails its "
                "CRC-32 — quarantine and scrub this run",
                path=str(self.path), offset=offset, reason="bad-block",
            )
        try:
            columns = _decode_block(payload)
            if len(columns[0]) != n:
                raise ValueError(f"block holds {len(columns[0])} row(s)")
        except _DECODE_ERRORS:
            raise StorageCorruptionError(
                f"{self.path}: block {i} at byte {offset} does not decode",
                path=str(self.path), offset=offset, reason="bad-block",
            ) from None
        return columns

    def get(self, key) -> "tuple[int, int, object] | None":
        """Point probe: ``(seq, kind, value)`` or None if absent."""
        if not self._index or not self.may_contain(key):
            return None
        lo, hi = 0, len(self._index) - 1
        found = -1
        while lo <= hi:
            mid = (lo + hi) // 2
            _o, _l, _n, first, last = self._index[mid]
            if key < first:
                hi = mid - 1
            elif key > last:
                lo = mid + 1
            else:
                found = mid
                break
        if found < 0:
            return None
        keys, seqs, kinds, values = self._read_block(found)
        try:
            j = keys.index(key)
        except ValueError:
            return None
        return seqs[j], kinds[j], values[j]

    def iter_entries(self):
        """All ``(key, seq, kind, value)`` rows in key order (verified)."""
        for i in range(len(self._index)):
            yield from zip(*self._read_block(i))

    def _scrub_block(
        self, i: int, *, retries: int = 1,
    ) -> "tuple[list, list, list, list]":
        """Read block ``i`` for a scrub pass, retrying transient ``EIO``.

        A fault that persists past ``retries`` attempts propagates to
        the caller, which records the block as unreadable (reason
        ``io-error``) — scrub treats a block the disk will not return
        exactly like one that fails its CRC: salvage around it.
        """
        attempt = 0
        while True:
            try:
                return self._read_block(i)
            except OSError as exc:
                if exc.errno != _errno.EIO or attempt >= retries:
                    raise
                attempt += 1

    def verify(self) -> "list[BlockFinding]":
        """Scrub every data block; returns findings (empty = clean).

        A finding is a block that fails its CRC, does not decode, *or*
        cannot be read at all (persistent ``EIO`` -> ``io-error``).
        """
        findings: "list[BlockFinding]" = []
        for i, (offset, _length, n, first, last) in enumerate(self._index):
            try:
                self._scrub_block(i)
            except (StorageCorruptionError, OSError) as exc:
                findings.append(BlockFinding(
                    path=str(self.path), block=i, offset=offset,
                    reason=getattr(exc, "reason", "") or "io-error",
                    first_key=first, last_key=last,
                    entries_lost=int(n),
                ))
        return findings

    def salvage(self) -> "tuple[list[tuple], list[BlockFinding]]":
        """Entries from intact blocks plus findings for the damaged ones."""
        good: "list[tuple]" = []
        findings: "list[BlockFinding]" = []
        for i, (offset, _length, n, first, last) in enumerate(self._index):
            try:
                columns = self._scrub_block(i)
            except (StorageCorruptionError, OSError) as exc:
                findings.append(BlockFinding(
                    path=str(self.path), block=i, offset=offset,
                    reason=getattr(exc, "reason", "") or "io-error",
                    first_key=first, last_key=last,
                    entries_lost=int(n),
                ))
                continue
            good.extend(zip(*columns))
        return good, findings
