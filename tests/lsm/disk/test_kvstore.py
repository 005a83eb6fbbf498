"""KVStore: the facade's semantics, recovery, scheduling, invariants."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.lsm.disk import (
    DiskLevelingPolicy,
    HornDensityPolicy,
    KVStore,
)
from repro.lsm.disk.scheduler import CompactionTask, level_capacity
from repro.lsm.disk.manifest import Manifest
from repro.lsm.disk.sstable import SSTableMeta
from repro.util.errors import (
    InvalidInstanceError,
    StorageCorruptionError,
    StorageError,
)


def _open(tmp_path: Path, **kw) -> KVStore:
    kw.setdefault("memtable_capacity", 8)
    kw.setdefault("size_ratio", 2)
    kw.setdefault("sync", False)
    return KVStore(tmp_path / "store", **kw)


def test_constructor_validation(tmp_path: Path) -> None:
    with pytest.raises(InvalidInstanceError):
        KVStore(tmp_path, memtable_capacity=0)
    with pytest.raises(InvalidInstanceError):
        KVStore(tmp_path, size_ratio=1)


def test_put_get_delete_roundtrip(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        assert s.put("a", 1) == 1
        assert s.put("b", {"nested": [1, 2]}) == 2
        assert s.get("a") == 1
        assert s.get("b") == {"nested": [1, 2]}
        assert s.get("missing") is None
        assert s.get("missing", 42) == 42
        s.delete("a")
        assert s.get("a") is None
        assert s.items() == [("b", {"nested": [1, 2]})]


def test_overwrite_newest_wins_across_flushes(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        for round_no in range(5):
            for k in range(8):
                s.put(f"k{k}", (round_no, k))
        for k in range(8):
            assert s.get(f"k{k}") == [4, k]  # JSON round-trips tuples


def test_closed_store_refuses(tmp_path: Path) -> None:
    s = _open(tmp_path)
    s.put("a", 1)
    s.close()
    s.close()  # idempotent
    with pytest.raises(StorageError):
        s.get("a")
    with pytest.raises(StorageError):
        s.put("b", 2)


def test_clean_reopen_preserves_everything(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        for i in range(100):
            s.put(f"k{i:03d}", i)
        s.delete("k050")
        expected = s.items()
    with _open(tmp_path) as s:
        assert s.items() == expected
        assert s.get("k050") is None
        assert s.get("k051") == 51


def test_reopen_without_close_is_exact(tmp_path: Path) -> None:
    """The crash signature: abandon a store mid-flight, reopen, compare."""
    s = _open(tmp_path)
    model = {}
    rng = random.Random(11)
    for i in range(300):
        k = f"k{rng.randrange(40):03d}"
        if rng.random() < 0.3:
            s.delete(k)
            model.pop(k, None)
        else:
            s.put(k, i)
            model[k] = i
    del s  # no close: WAL tail and memtable die with the "process"
    s2 = _open(tmp_path)
    assert dict(s2.items()) == model
    s2.check_invariants()
    s2.close()


def test_recovery_counters_surface(tmp_path: Path) -> None:
    s = _open(tmp_path)
    for i in range(5):  # below memtable capacity: all live in the WAL
        s.put(f"k{i}", i)
    del s
    s2 = _open(tmp_path)
    assert s2.recovered_records == 5
    assert [s2.get(f"k{i}") for i in range(5)] == [0, 1, 2, 3, 4]
    s2.close()


def test_sequence_numbers_continue_after_recovery(tmp_path: Path) -> None:
    s = _open(tmp_path)
    last = 0
    for i in range(7):
        last = s.put(f"k{i}", i)
    del s
    s2 = _open(tmp_path)
    assert s2.put("next", 1) == last + 1
    s2.close()


def test_compaction_grows_levels_and_retires_tombstones(
    tmp_path: Path,
) -> None:
    with _open(tmp_path) as s:
        for i in range(200):
            s.put(f"k{i % 50:03d}", i)
        for i in range(25):
            s.delete(f"k{i:03d}")
        s.flush_memtable()
        s.drain_backlog()
        s.check_invariants()
        assert len(s.manifest.levels) >= 2
        # A fully drained tree holds no tombstone whose work is done.
        deep = s.manifest.levels[-1]
        assert sum(m.tombstones for m in deep) == 0
        assert dict(s.items()) == {
            f"k{i:03d}": 150 + i for i in range(25, 50)
        }


def test_horn_density_prefers_dense_obligations() -> None:
    """Unit-level: the policy ranks a tombstone-rich cheap merge above a
    tombstone-poor expensive one."""

    def meta(fid, lo, hi, entries, tombs):
        return SSTableMeta(
            name=f"sst-{fid:06d}.sst", file_id=fid, entries=entries,
            tombstones=tombs, min_key=lo, max_key=hi, min_seq=1,
            max_seq=entries, blocks=1,
        )

    manifest = Manifest(
        next_file_id=10,
        levels=(
            (),
            (meta(1, "a", "f", 20, 10), meta(2, "g", "m", 20, 1)),
            (meta(3, "a", "f", 40, 0), meta(4, "g", "m", 400, 0)),
        ),
    )
    task = HornDensityPolicy().choose(
        manifest, memtable_capacity=8, size_ratio=8
    )
    assert isinstance(task, CompactionTask)
    assert task.regime == "density"
    assert task.file_ids == (1,)  # 10/60 beats 1/420


def test_capacity_always_outranks_density() -> None:
    def meta(fid, lo, hi, entries, tombs):
        return SSTableMeta(
            name=f"sst-{fid:06d}.sst", file_id=fid, entries=entries,
            tombstones=tombs, min_key=lo, max_key=hi, min_seq=1,
            max_seq=entries, blocks=1,
        )

    # Level 1 over its budget of 8 * 2^2 = 32 entries.
    manifest = Manifest(
        next_file_id=10,
        levels=((), (meta(1, "a", "m", 40, 1),), (meta(2, "a", "z", 5, 0),)),
    )
    task = HornDensityPolicy().choose(
        manifest, memtable_capacity=8, size_ratio=2
    )
    assert task is not None and task.regime == "capacity"
    assert task.level == 1


def test_leveling_policy_is_quiet_when_within_budget() -> None:
    manifest = Manifest(levels=((),))
    assert DiskLevelingPolicy().choose(
        manifest, memtable_capacity=8, size_ratio=2
    ) is None


def test_level_capacity_geometric() -> None:
    assert level_capacity(1, memtable_capacity=8, size_ratio=4) == 128
    assert level_capacity(2, memtable_capacity=8, size_ratio=4) == 512


def test_stale_task_rejected(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        for i in range(16):
            s.put(f"k{i}", i)
        s.flush_memtable()
        with pytest.raises(StorageError):
            s._execute(CompactionTask(
                level=0, file_ids=(999,), regime="capacity", score=0.0
            ))


def test_orphan_sstables_collected_at_open(tmp_path: Path) -> None:
    """A crash between SSTable write and manifest commit strands a file;
    the next open deletes it without touching live state."""
    with _open(tmp_path) as s:
        for i in range(16):
            s.put(f"k{i:02d}", i)
        s.flush_memtable()
        expected = s.items()
        home = s.directory
    orphan = home / "sst-009999.sst"
    orphan.write_bytes(b"half-written run, never committed")
    with _open(tmp_path) as s:
        assert not orphan.exists()
        assert s.items() == expected


def test_stale_wal_generations_collected_at_open(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        for i in range(40):
            s.put(f"k{i:02d}", i)
        home = s.directory
        live_gen = s.manifest.wal_gen
    from repro.lsm.disk.wal import wal_path

    stale = wal_path(home, 0)
    assert live_gen > 0
    stale.write_bytes(b"obsolete generation, survives only a crash")
    with _open(tmp_path) as s:
        assert not stale.exists()


def test_manifest_damage_surfaces_at_open(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        s.put("a", 1)
        home = s.directory
    from repro.faults.crashes import flip_byte
    from repro.lsm.disk.manifest import manifest_path

    flip_byte(manifest_path(home), 15, in_place=True)
    with pytest.raises(StorageCorruptionError):
        _open(tmp_path)


def test_check_invariants_catches_missing_file(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        for i in range(16):
            s.put(f"k{i:02d}", i)
        s.flush_memtable()
        victim = s.directory / s.manifest.live_files()[0].name
        victim.unlink()
        with pytest.raises(StorageError):
            s.check_invariants()


def test_stats_shape(tmp_path: Path) -> None:
    with _open(tmp_path) as s:
        for i in range(20):
            s.put(f"k{i:02d}", i)
        stats = s.stats()
    assert stats["seq"] == 20
    assert stats["memtable"] == 20 % 8
    assert isinstance(stats["levels"], list)
    assert {"runs", "entries", "tombstones"} <= set(stats["levels"][0])


def test_stats_reports_per_level_bytes(tmp_path: Path) -> None:
    """Each level row carries the on-disk byte total of its SSTables,
    matching the actual file sizes; a vanished file counts 0."""
    with _open(tmp_path) as s:
        for i in range(40):
            s.put(f"k{i:02d}", "v" * 32)
        stats = s.stats()
        assert all("bytes" in level for level in stats["levels"])
        occupied = [lv for lv in stats["levels"] if lv["runs"]]
        assert occupied and all(lv["bytes"] > 0 for lv in occupied)
        expected = [
            sum((s.directory / m.name).stat().st_size for m in level)
            for level in s.manifest.levels
        ]
        assert [lv["bytes"] for lv in stats["levels"]] == expected
        # A file missing underneath us (scrub quarantine) degrades to 0.
        victim = next(
            m for level in s.manifest.levels for m in level
        )
        (s.directory / victim.name).rename(tmp_path / "gone")
        degraded = s.stats()
        total = lambda st: sum(lv["bytes"] for lv in st["levels"])  # noqa: E731
        assert total(degraded) == total(stats) - (
            tmp_path / "gone").stat().st_size
        (tmp_path / "gone").rename(s.directory / victim.name)


#: values whose JSON round trip the binary formats must reproduce.
_VALUE_DOMAIN = [
    -1, -(2 ** 40), -(2 ** 63), -(2 ** 63) - 1, 2 ** 63 - 1, 2 ** 63,
    2 ** 64 + 5, 10 ** 30, 7, 1, 0, True, False, None,
    1.5, -0.0, 1e300, float("inf"), float("nan"),
    "", "plain", "héllo 漢字 \U0001f600", "\ud800", 'q"\\\n',
    {"gid": 3, "step": 17}, {"nested": [1, {"a": None}]}, {1: "int key"},
    [1, "two", None, 2.5], (1, (2, 3)), [], (),
]


def _typed(value):
    """``value`` with every type spelled out (1 != True, -0.0 != 0.0,
    tuple != list)."""
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(v) for v in value]
    if isinstance(value, dict):
        return "dict", [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, float):
        return "float", repr(value)
    return type(value).__name__, value


def _json_view(values: dict) -> dict:
    import json

    return {k: _typed(json.loads(json.dumps(v))) for k, v in values.items()}


def test_value_domain_roundtrips_like_json(tmp_path: Path) -> None:
    """Through WAL replay, flush, compaction and reopen the store returns
    exactly what a JSON encoding of each value decodes to."""
    written = {f"v{i:03d}": v for i, v in enumerate(_VALUE_DOMAIN)}
    want = _json_view(written)
    # WAL only: a crash before any flush replays every value.
    s = _open(tmp_path, memtable_capacity=1000)
    for k, v in written.items():
        s.put(k, v)
    del s
    s = _open(tmp_path, memtable_capacity=1000)
    assert {k: _typed(v) for k, v in s.items()} == want
    s.close()
    # SSTables: many flushes and compactions, then a clean reopen.
    home = tmp_path / "sst"
    s = KVStore(home, memtable_capacity=4, size_ratio=2, sync=False)
    for k, v in written.items():
        s.put(k, v)
    s.flush_memtable()
    s.drain_backlog()
    assert s.compactions > 0
    assert {k: _typed(s.get(k)) for k in written} == want
    s.close()
    s = KVStore(home, memtable_capacity=4, size_ratio=2, sync=False)
    assert {k: _typed(v) for k, v in s.items()} == want
    s.close()
