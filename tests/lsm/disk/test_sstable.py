"""SSTable format: round-trip, bloom, CRC detection, salvage."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults.crashes import flip_byte, truncate_at
from repro.lsm.disk.sstable import (
    KIND_PUT,
    KIND_TOMBSTONE,
    SST_VERSION,
    BloomFilter,
    SSTableReader,
    sstable_name,
    write_sstable,
)
from repro.util.errors import InvalidInstanceError, StorageCorruptionError


def _entries(n: int, *, tombstone_every: int = 0):
    rows = []
    for i in range(n):
        kind = (
            KIND_TOMBSTONE
            if tombstone_every and i % tombstone_every == 0
            else KIND_PUT
        )
        value = None if kind == KIND_TOMBSTONE else i * 7
        rows.append((f"key-{i:05d}", i + 1, kind, value))
    return rows


def test_roundtrip_and_meta(tmp_path: Path) -> None:
    rows = _entries(100, tombstone_every=10)
    meta = write_sstable(tmp_path, 3, rows, block_entries=16)
    assert meta.name == sstable_name(3)
    assert meta.entries == 100
    assert meta.tombstones == 10
    assert (meta.min_key, meta.max_key) == ("key-00000", "key-00099")
    assert (meta.min_seq, meta.max_seq) == (1, 100)
    reader = SSTableReader(tmp_path / meta.name)
    assert list(reader.iter_entries()) == rows
    assert reader.get("key-00042") == (43, KIND_PUT, 42 * 7)
    assert reader.get("key-00040") == (41, KIND_TOMBSTONE, None)
    assert reader.get("nope") is None


def test_empty_sstable(tmp_path: Path) -> None:
    meta = write_sstable(tmp_path, 1, [])
    reader = SSTableReader(tmp_path / meta.name)
    assert list(reader.iter_entries()) == []
    assert reader.get("anything") is None


def test_unsorted_entries_rejected(tmp_path: Path) -> None:
    rows = [("b", 1, KIND_PUT, 1), ("a", 2, KIND_PUT, 2)]
    with pytest.raises(InvalidInstanceError):
        write_sstable(tmp_path, 1, rows)
    with pytest.raises(InvalidInstanceError):
        write_sstable(tmp_path, 1, [("a", 1, KIND_PUT, 1)] * 2)


def test_bloom_no_false_negatives(tmp_path: Path) -> None:
    rows = _entries(500)
    meta = write_sstable(tmp_path, 1, rows, block_entries=64)
    reader = SSTableReader(tmp_path / meta.name)
    assert all(reader.may_contain(k) for k, _s, _k, _v in rows)


def test_bloom_saves_block_reads(tmp_path: Path) -> None:
    rows = _entries(500)
    meta = write_sstable(tmp_path, 1, rows, block_entries=64)
    reader = SSTableReader(tmp_path / meta.name)
    misses = sum(
        1 for i in range(500) if reader.get(f"absent-{i:05d}") is None
    )
    assert misses == 500
    # ~1% false-positive rate at 10 bits/key: almost every absent probe
    # must short-circuit at the bloom filter.
    assert reader.block_reads < 50


def test_bloom_filter_roundtrip() -> None:
    bf = BloomFilter.for_entries(100)
    for i in range(100):
        bf.add(("composite", i))
    clone = BloomFilter.from_payload(bf.to_payload())
    assert all(("composite", i) in clone for i in range(100))


def test_block_bitflip_detected_at_probe(tmp_path: Path) -> None:
    rows = _entries(64)
    meta = write_sstable(tmp_path, 1, rows, block_entries=8)
    path = tmp_path / meta.name
    # Damage the first data block's payload (header is 8 bytes, then
    # the 8-byte section frame).
    flip_byte(path, 20, in_place=True)
    reader = SSTableReader(path)  # structural sections are intact
    with pytest.raises(StorageCorruptionError) as exc:
        reader.get(rows[0][0])
    assert exc.value.reason == "bad-block"
    assert exc.value.offset == 8


def test_footer_damage_detected_at_open(tmp_path: Path) -> None:
    meta = write_sstable(tmp_path, 1, _entries(10))
    path = tmp_path / meta.name
    flip_byte(path, path.stat().st_size - 1, in_place=True)
    with pytest.raises(StorageCorruptionError) as exc:
        SSTableReader(path)
    assert exc.value.reason == "bad-footer"


def test_truncation_detected_at_open(tmp_path: Path) -> None:
    meta = write_sstable(tmp_path, 1, _entries(10))
    path = tmp_path / meta.name
    truncate_at(path, path.stat().st_size // 2, in_place=True)
    with pytest.raises(StorageCorruptionError):
        SSTableReader(path)


def test_bad_magic_detected(tmp_path: Path) -> None:
    meta = write_sstable(tmp_path, 1, _entries(10))
    path = tmp_path / meta.name
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(StorageCorruptionError) as exc:
        SSTableReader(path)
    assert exc.value.reason == "bad-magic"


def test_every_byte_flip_is_detected_or_harmless(tmp_path: Path) -> None:
    """Exhaustive single-bit-flip sweep: every probe either returns the
    written value or raises typed corruption — never a wrong value."""
    rows = _entries(24)
    meta = write_sstable(tmp_path, 1, rows, block_entries=8)
    original = (tmp_path / meta.name).read_bytes()
    victim = tmp_path / "victim.sst"
    for offset in range(len(original)):
        damaged = bytearray(original)
        damaged[offset] ^= 0x40
        victim.write_bytes(bytes(damaged))
        try:
            reader = SSTableReader(victim)
            for k, seq, kind, value in rows:
                got = reader.get(k)
                if got is not None:
                    assert got == (seq, kind, value)
        except StorageCorruptionError:
            continue


def test_salvage_partitions_good_from_bad(tmp_path: Path) -> None:
    rows = _entries(64)
    meta = write_sstable(tmp_path, 1, rows, block_entries=8)
    path = tmp_path / meta.name
    flip_byte(path, 20, in_place=True)  # block 0 only
    reader = SSTableReader(path)
    good, findings = reader.salvage()
    assert [f.block for f in findings] == [0]
    assert findings[0].entries_lost == 8
    assert good == rows[8:]
    assert reader.verify() and reader.verify()[0].reason == "bad-block"


def test_verify_clean_file(tmp_path: Path) -> None:
    meta = write_sstable(tmp_path, 1, _entries(64), block_entries=8)
    assert SSTableReader(tmp_path / meta.name).verify() == []


def test_meta_payload_roundtrip(tmp_path: Path) -> None:
    meta = write_sstable(tmp_path, 9, _entries(30, tombstone_every=3))
    from repro.lsm.disk.sstable import SSTableMeta

    assert SSTableMeta.from_payload(meta.to_payload()) == meta


def test_overlaps() -> None:
    from repro.lsm.disk.sstable import SSTableMeta

    def mk(lo, hi, n=5):
        return SSTableMeta(
            name="x", file_id=1, entries=n, tombstones=0,
            min_key=lo, max_key=hi, min_seq=1, max_seq=n, blocks=1,
        )

    assert mk("a", "c").overlaps(mk("b", "d"))
    assert not mk("a", "c").overlaps(mk("d", "e"))
    assert mk("a", "c").overlaps(mk("c", "e"))
    assert not mk("a", "c", n=0).overlaps(mk("a", "c"))
    assert mk("a", "c").overlaps_range("c", "z")
    assert not mk("a", "c").overlaps_range("d", "z")


# -- binary format (version 3) -----------------------------------------

_BLOOM_KEYS = [
    "", "plain", "k012345", 'say "hi"', "back\\slash", "tab\there",
    "\x00\x1f\x7f", "café", "漢字", "\U0001f600", "\ud800",
    0, -7, 2 ** 70, ("composite", 3), ("a", ("nested", 1.5)),
]


def test_bloom_positions_pinned_to_json_text() -> None:
    """The bloom hash input is each key's compact JSON text, bit for bit,
    whatever shortcut computes it; ``h1``/``h2`` are the little-endian
    64-bit halves of its 16-byte BLAKE2b digest."""
    import hashlib
    import json

    for key in _BLOOM_KEYS:
        kb = json.dumps(key, separators=(",", ":")).encode("utf-8")
        digest = hashlib.blake2b(kb, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        want = {(h1 + i * h2) % 997 for i in range(7)}
        bf = BloomFilter(997, 7)
        bf.add(key)
        got = {i for i in range(997) if bf.bits[i >> 3] >> (i & 7) & 1}
        assert got == want, key
        assert key in bf


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_bloom_false_positive_rate_near_theory(n: int) -> None:
    """Equal-length keys at the default 10 bits/key, where theory says
    0.82% false positives.  Two hashes that depend on each other (two
    CRC-32s of the same bytes differ by a constant XOR for equal
    lengths) push this to 2.4-3.8%."""
    bf = BloomFilter.for_entries(n)
    for i in range(n):
        bf.add(f"k{i:06d}")
    probes = 20_000
    false_hits = sum(f"k{j:06d}" in bf for j in range(100_000,
                                                      100_000 + probes))
    assert false_hits / probes <= 0.015


def test_bloom_payload_is_raw_bits() -> None:
    bf = BloomFilter.for_entries(40)
    for i in range(40):
        bf.add(f"key-{i}")
    payload = bf.to_payload()
    assert payload.endswith(bytes(bf.bits))
    assert len(payload) == len(bf.bits) + 9


def _sections(path: Path) -> "list[tuple[int, int]]":
    """``(offset, payload length)`` of every CRC section in the file."""
    import struct

    data = path.read_bytes()
    bloom_off, index_off, _n, _crc, _magic = struct.unpack(
        "<QQQI4s", data[-32:])
    spans, off = [], 8
    while off < len(data) - 32:
        length = struct.unpack_from("<I", data, off)[0]
        spans.append((off, length))
        off += 8 + length
    assert bloom_off in dict(spans) and index_off in dict(spans)
    return spans


def _forge(path: Path, offset: int, payload: bytes) -> None:
    """Replace the section at ``offset`` with ``payload`` (same length)
    under a freshly computed CRC, so only the decoder can object."""
    import struct
    import zlib

    data = bytearray(path.read_bytes())
    length = struct.unpack_from("<I", data, offset)[0]
    assert len(payload) == length
    data[offset:offset + 8 + length] = (
        struct.pack("<II", length, zlib.crc32(payload)) + payload)
    path.write_bytes(bytes(data))


def _garbage(payload: bytes) -> "list[bytes]":
    """Same-length payloads the writer never produces."""
    import random

    rng = random.Random(len(payload))
    n = len(payload)
    cases = [b"\x00" * n, b"\xff" * n, payload[::-1]]
    cases += [bytes(rng.randrange(256) for _ in range(n)) for _ in range(20)]
    # Every single-byte corruption of the genuine payload.
    for i in range(n):
        mutated = bytearray(payload)
        mutated[i] ^= 0xFF
        cases.append(bytes(mutated))
    return cases


@pytest.mark.parametrize("values", ["ints", "json"])
def test_forged_block_payloads_raise_typed_errors(
    tmp_path: Path, values: str,
) -> None:
    rows = _entries(24, tombstone_every=5)
    if values == "json":
        rows = [(k, s, kd, None if v is None else [v, "x"])
                for k, s, kd, v in rows]
    meta = write_sstable(tmp_path, 1, rows, block_entries=8)
    path = tmp_path / meta.name
    original = path.read_bytes()
    offset, length = _sections(path)[1]  # block 1 of 3
    payload = original[offset + 8:offset + 8 + length]
    for forged in _garbage(payload):
        path.write_bytes(original)
        _forge(path, offset, forged)
        reader = SSTableReader(path)  # the block is only read on a probe
        try:
            got = reader.get(rows[10][0])
        except StorageCorruptionError as exc:
            assert exc.reason == "bad-block"
            assert exc.offset == offset
            continue
        # A forged payload that still decodes carries another version
        # of the block; intact blocks must never be affected.
        assert got is None or len(got) == 3
        assert reader.get(rows[0][0]) == rows[0][1:]


def test_truncated_payloads_never_decode(tmp_path: Path) -> None:
    """Every column is length-exact: a shortened payload (as if forged
    under a valid CRC) is a decode error, never a shorter block."""
    from repro.lsm.disk.sstable import (
        _DECODE_ERRORS,
        _decode_block,
        _decode_index,
    )

    rows = _entries(8, tombstone_every=3)
    json_rows = [(k, s, kd, [v]) for k, s, kd, v in rows]
    for table, decode in ((rows, _decode_block), (json_rows, _decode_block),
                          (rows, _decode_index),
                          (rows, BloomFilter.from_payload)):
        meta = write_sstable(tmp_path, 1, table, block_entries=8)
        path = tmp_path / meta.name
        data = path.read_bytes()
        section = {_decode_block: 0, _decode_index: -1,
                   BloomFilter.from_payload: -2}[decode]
        offset, length = _sections(path)[section]
        payload = data[offset + 8:offset + 8 + length]
        decode(payload)
        for cut in range(length):
            with pytest.raises(_DECODE_ERRORS):
                decode(payload[:cut])


@pytest.mark.parametrize("section,reason", [(-2, "bad-bloom"),
                                            (-1, "bad-index")])
def test_forged_structural_payloads_raise_typed_errors(
    tmp_path: Path, section: int, reason: str,
) -> None:
    rows = _entries(40)
    meta = write_sstable(tmp_path, 1, rows, block_entries=8)
    path = tmp_path / meta.name
    original = path.read_bytes()
    offset, length = _sections(path)[section]
    payload = original[offset + 8:offset + 8 + length]
    for forged in _garbage(payload):
        path.write_bytes(original)
        _forge(path, offset, forged)
        try:
            reader = SSTableReader(path)
        except StorageCorruptionError as exc:
            assert exc.reason == reason
            continue
        # Survivors are forgeries that still parse (a bloom bit or an
        # index offset moved): probes still raise only typed errors.
        for k, _s, _kd, _v in rows:
            try:
                reader.get(k)
            except StorageCorruptionError:
                pass


def _write_v1_sstable(path: Path, rows) -> None:
    """The JSON layout of format version 1, as older builds wrote it."""
    import json
    import struct
    import zlib

    def section(obj) -> bytes:
        payload = json.dumps(obj, separators=(",", ":")).encode()
        return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload

    blob = bytearray(b"WSST" + struct.pack("<I", 1))
    blob += section([list(r) for r in rows])
    bloom_off = len(blob)
    blob += section({"m": 64, "k": 1, "bits": "00" * 8})
    index_off = len(blob)
    blob += section({"blocks": [[8, bloom_off - 8, len(rows),
                                 rows[0][0], rows[-1][0]]]})
    packed = struct.pack("<QQQ", bloom_off, index_off, len(rows))
    blob += packed + struct.pack("<I", zlib.crc32(packed)) + b"TSSW"
    path.write_bytes(bytes(blob))


def test_v1_sstable_is_rejected_with_bad_version(tmp_path: Path) -> None:
    path = tmp_path / sstable_name(1)
    _write_v1_sstable(path, _entries(4))
    with pytest.raises(StorageCorruptionError) as exc:
        SSTableReader(path)
    assert exc.value.reason == "bad-version"
    assert "version 1" in str(exc.value)
    assert f"version {SST_VERSION}" in str(exc.value)


def test_v2_sstable_is_rejected_with_bad_version(tmp_path: Path) -> None:
    """Version 2 has this layout but CRC-32 bloom bits: read with the
    current hash, its bloom would report present keys absent."""
    import struct

    assert SST_VERSION == 3
    meta = write_sstable(tmp_path, 1, _entries(40))
    path = tmp_path / meta.name
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(data))
    with pytest.raises(StorageCorruptionError) as exc:
        SSTableReader(path)
    assert exc.value.reason == "bad-version"
    assert exc.value.offset == 4
    assert "version 2" in str(exc.value)


def test_non_str_keys_and_values_use_the_json_columns(tmp_path: Path) -> None:
    rows = [(i, i + 10, KIND_PUT, {"v": i}) for i in range(-3, 5)]
    meta = write_sstable(tmp_path, 1, rows, block_entries=3)
    reader = SSTableReader(tmp_path / meta.name)
    assert list(reader.iter_entries()) == rows
    assert reader.get(2) == (12, KIND_PUT, {"v": 2})


def test_kinds_and_sequence_numbers_are_validated(tmp_path: Path) -> None:
    with pytest.raises(InvalidInstanceError):
        write_sstable(tmp_path, 1, [("a", 1, 2, None)])
    with pytest.raises(InvalidInstanceError):
        write_sstable(tmp_path, 1, [("a", -1, KIND_PUT, 1)])
