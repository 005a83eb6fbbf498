"""WAL generations: WOJ1 inheritance, replay rules, typed failures."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dam.journal import MAGIC, scan_journal
from repro.faults.crashes import flip_byte, truncate_at
from repro.lsm.disk.wal import (
    delete_record,
    open_wal,
    put_record,
    replay_wal,
    wal_generations,
    wal_path,
)
from repro.util.errors import JournalCorruptionError, StorageCorruptionError


def _write_gen(directory: Path, gen: int, records) -> Path:
    w = open_wal(directory, gen, sync=False)
    for rec in records:
        w.append(rec)
    w.flush()
    w.close()
    return wal_path(directory, gen)


def test_wal_is_a_woj1_journal(tmp_path: Path) -> None:
    path = _write_gen(tmp_path, 0, [put_record(1, "a", 10)])
    assert path.read_bytes()[:4] == MAGIC
    scan = scan_journal(path)
    assert [r["type"] for r in scan.records] == ["meta", "put"]
    assert scan.records[0]["policy"] == "kv-wal"


def test_generation_listing_sorted(tmp_path: Path) -> None:
    for gen in (3, 0, 11):
        _write_gen(tmp_path, gen, [])
    assert [g for g, _p in wal_generations(tmp_path)] == [0, 3, 11]


def test_replay_across_generations(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(1, "a", 1), put_record(2, "b", 2)])
    _write_gen(tmp_path, 1, [delete_record(3, "a"), put_record(4, "c", 3)])
    records, torn = replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert [r["seq"] for r in records] == [1, 2, 3, 4]
    assert torn == 0


def test_replay_skips_flushed_prefix(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(s, f"k{s}", s) for s in (1, 2, 3)])
    _write_gen(tmp_path, 1, [put_record(4, "k4", 4)])
    records, _ = replay_wal(tmp_path, from_gen=0, after_seq=3)
    assert [r["seq"] for r in records] == [4]


def test_torn_tail_on_newest_is_repaired(tmp_path: Path) -> None:
    path = _write_gen(
        tmp_path, 0, [put_record(1, "a", 1), put_record(2, "b", 2)]
    )
    truncate_at(path, path.stat().st_size - 3, in_place=True)
    records, torn = replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert [r["seq"] for r in records] == [1]
    assert torn > 0
    # The repair truncated in place: a second scan sees no tear.
    assert scan_journal(path).torn_bytes == 0


def test_torn_nonfinal_generation_is_corruption(tmp_path: Path) -> None:
    old = _write_gen(tmp_path, 0, [put_record(1, "a", 1)])
    _write_gen(tmp_path, 1, [put_record(2, "b", 2)])
    truncate_at(old, old.stat().st_size - 2, in_place=True)
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "wal-mid-chain-tear"


def test_mid_record_damage_is_corruption(tmp_path: Path) -> None:
    path = _write_gen(
        tmp_path, 0, [put_record(1, "a", 1), put_record(2, "b", 2)]
    )
    flip_byte(path, 20, in_place=True)  # first record, data follows it
    with pytest.raises(JournalCorruptionError):
        replay_wal(tmp_path, from_gen=0, after_seq=0)


def test_sequence_gap_is_never_silent(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(1, "a", 1), put_record(3, "c", 3)])
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "seq-gap"


def test_gap_across_generation_boundary(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(1, "a", 1)])
    _write_gen(tmp_path, 1, [put_record(5, "e", 5)])
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "seq-gap"


def test_unknown_record_type_is_typed(tmp_path: Path) -> None:
    w = open_wal(tmp_path, 0, sync=False)
    w.append({"type": "mystery", "seq": 1})
    w.flush()
    w.close()
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "bad-payload"


def test_kill_at_every_offset_replays_exact_prefix(tmp_path: Path) -> None:
    """The inherited exactness guarantee, re-proven at the WAL layer:
    truncating the newest generation at every byte offset yields replay
    of exactly the records whose flush completed before the cut."""
    records = [put_record(s, f"k{s}", s * 10) for s in (1, 2, 3, 4)]
    path = _write_gen(tmp_path, 0, records)
    full = path.read_bytes()
    for cut in range(len(full) + 1):
        work = tmp_path / "case"
        work.mkdir()
        (work / path.name).write_bytes(full[:cut])
        replayed, _ = replay_wal(work, from_gen=0, after_seq=0)
        seqs = [r["seq"] for r in replayed]
        assert seqs == list(range(1, len(seqs) + 1))
        # Whatever survived is a prefix; the tear only ever costs the
        # record actually straddling the cut.
        for rec in replayed:
            assert rec == records[rec["seq"] - 1]
        import shutil

        shutil.rmtree(work)


# -- binary records (header version 2) ---------------------------------


def test_wal_header_is_version_2_and_records_are_binary(
    tmp_path: Path,
) -> None:
    import struct

    from repro.lsm.disk.wal import WAL_VERSION

    path = _write_gen(tmp_path, 0, [put_record(1, "k000001", 123456789)])
    data = path.read_bytes()
    assert struct.unpack_from("<I", data, 4)[0] == WAL_VERSION == 2
    scan = scan_journal(path)
    assert scan.version == 2
    # meta (JSON fallback) + one put of 1+8+4 + 1+7 + 1+8 payload bytes.
    assert len(data) == 8 + (8 + 1 + len(
        b'{"type":"meta","policy":"kv-wal","gen":0}')) + (8 + 30)


def test_v1_wal_generation_is_rejected_with_bad_version(
    tmp_path: Path,
) -> None:
    """A JSON (version 1) WAL, as older builds wrote it, is refused by
    replay and by the store — there is no version-1 reader."""
    from repro.dam.journal import JournalWriter
    from repro.lsm.disk import KVStore

    with JournalWriter(wal_path(tmp_path, 0),
                       meta={"policy": "kv-wal", "gen": 0}) as w:
        w.append(put_record(1, "a", 1))
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "bad-version"
    assert "version 1" in str(exc.value) and "version 2" in str(exc.value)
    with pytest.raises(StorageCorruptionError) as exc:
        KVStore(tmp_path, sync=False)
    assert exc.value.reason == "bad-version"


_FORGED_PAYLOADS = [
    b"",                                  # no tag
    b"\x07",                              # unknown tag
    b"\x01",                              # put without a header
    b"\x01" + bytes(12),                  # put without fields
    b"\x01" + bytes(8) + b"\xff\x00\x00\x00" + b"SaN",  # key past end
    b"\x01" + bytes(8) + b"\x03\x00\x00\x00" + b"SaN",  # no value field
    b"\x01" + bytes(8) + b"\x01\x00\x00\x00" + b"XN",   # bad key tag
    b"\x01" + bytes(8) + b"\x02\x00\x00\x00" + b"SaI\x01\x02",  # short int
    b"\x01" + bytes(8) + b"\x02\x00\x00\x00" + b"Sa" + b"S\xff\xfe",  # utf-8
    b"\x01" + bytes(8) + b"\x02\x00\x00\x00" + b"SaJ{oops",  # bad JSON
    b"\x01" + bytes(8) + b"\x02\x00\x00\x00" + b"SaNx",  # None with a body
    b"\x02" + bytes(4),                   # short del
    b"\x02" + bytes(8),                   # del without a key
    b"\x00[1,2]",                         # JSON that is not an object
    b'\x00{"seq":1}',                     # JSON object without a type
    b"\x00\xff",                          # undecodable JSON
]


@pytest.mark.parametrize("payload", _FORGED_PAYLOADS)
def test_forged_wal_payloads_are_bad_payload(
    tmp_path: Path, payload: bytes,
) -> None:
    """A payload under a valid CRC that does not decode is the journal's
    typed ``bad-payload`` mid-file, and a torn tail at the end."""
    from repro.dam.journal import frame_payload

    path = _write_gen(tmp_path, 0, [])
    good = path.read_bytes()
    valid = frame_payload(b"\x01" + (1).to_bytes(8, "little")
                          + b"\x02\x00\x00\x00SaN")
    path.write_bytes(good + frame_payload(payload) + valid)
    with pytest.raises(JournalCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "bad-payload"
    path.write_bytes(good + valid + frame_payload(payload))
    records, torn = replay_wal(tmp_path, from_gen=0, after_seq=0,
                               repair=False)
    assert records == [put_record(1, "a", None)]
    assert torn == len(frame_payload(payload))


def test_every_forged_byte_of_a_record_is_typed_or_decodes(
    tmp_path: Path,
) -> None:
    """Flip each payload byte and recompute the CRC: the scanner either
    decodes a record or raises its typed error — nothing else escapes."""
    from repro.dam.journal import frame_payload
    from repro.lsm.disk.wal import encode_wal_record

    path = _write_gen(tmp_path, 0, [])
    header = path.read_bytes()
    for record in (put_record(3, "clé", {"gid": 1, "step": 2}),
                   put_record(4, "k", -5), delete_record(5, "k")):
        payload = encode_wal_record(record)
        for i in range(len(payload)):
            forged = bytearray(payload)
            forged[i] ^= 0xFF
            path.write_bytes(header + frame_payload(bytes(forged))
                             + frame_payload(payload))
            try:
                scan_journal(path)
            except JournalCorruptionError as exc:
                assert exc.reason == "bad-payload"
