"""The density admission bound of :class:`HornDensityPolicy`.

A density (obligation-drain) merge may move at most ``size_ratio``
entries per entry of its source runs — what a leveled capacity merge
pays per entry anyway.  A dearer candidate is skipped, stays a
candidate, and runs once its overlap below has shrunk.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.lsm.disk import (
    DiskLevelingPolicy,
    HornDensityPolicy,
    KVStore,
    Manifest,
)
from repro.lsm.disk.sstable import SSTableMeta


def _meta(fid, lo, hi, entries, tombs):
    return SSTableMeta(
        name=f"sst-{fid:06d}.sst", file_id=fid, entries=entries,
        tombstones=tombs, min_key=lo, max_key=hi, min_seq=1,
        max_seq=entries, blocks=1,
    )


def _manifest(overlap: int) -> Manifest:
    # One tombstone-bearing L1 run of 10 entries over an L2 run of
    # ``overlap`` entries: the merge moves 10 + overlap entries.
    return Manifest(
        next_file_id=10,
        levels=((), (_meta(1, "a", "f", 10, 5),),
                (_meta(2, "a", "f", overlap, 0),)),
    )


def _choose(policy, manifest):
    return policy.choose(manifest, memtable_capacity=8, size_ratio=4)


def test_density_candidate_moving_more_than_size_ratio_is_skipped():
    # 10 + 31 = 41 moved > 4 x 10: dearer per entry than leveling.
    assert _choose(HornDensityPolicy(), _manifest(31)) is None


def test_density_candidate_runs_once_its_overlap_shrinks():
    # 10 + 30 = 40 moved = 4 x 10: admitted at the bound.
    task = _choose(HornDensityPolicy(), _manifest(30))
    assert task is not None and task.regime == "density"
    assert (task.level, task.file_ids) == (1, (1,))


def test_bound_picks_the_admissible_candidate():
    # The denser run (5 tombstones / 45 moved) is over the bound; the
    # sparser one (1 / 20 moved) is within it and is chosen instead.
    manifest = Manifest(
        next_file_id=10,
        levels=(
            (),
            (_meta(1, "a", "f", 5, 5), _meta(2, "g", "m", 10, 1)),
            (_meta(3, "a", "f", 40, 0), _meta(4, "g", "m", 10, 0)),
        ),
    )
    task = _choose(HornDensityPolicy(), manifest)
    assert task is not None and task.file_ids == (2,)


class _Recording(HornDensityPolicy):
    """:class:`HornDensityPolicy` that remembers each task's regime."""

    def __init__(self) -> None:
        super().__init__()
        self.regimes: "list[str]" = []

    def choose(self, manifest, **kw):
        task = super().choose(manifest, **kw)
        if task is not None:
            self.regimes.append(task.regime)
        return task


def _tombstones_above_bottom(tmp_path: Path, policy) -> int:
    rng = random.Random(0)
    with KVStore(tmp_path, memtable_capacity=16, size_ratio=4,
                 sync=False, policy=policy) as store:
        for i in range(2000):
            key = f"k{rng.randrange(500):05d}"
            if rng.random() < 0.3:
                store.delete(key)
            else:
                store.put(key, i)
        store.check_invariants()
        return sum(m.tombstones
                   for level in store.manifest.levels[:-1] for m in level)


def test_mixed_stream_still_drains_obligations(tmp_path: Path) -> None:
    """The bound keeps the Horn path alive: a seeded put/delete stream
    runs density merges and leaves fewer tombstones above the bottom
    level than capacity-only leveling."""
    horn = _Recording()
    horn_left = _tombstones_above_bottom(tmp_path / "horn", horn)
    leveled_left = _tombstones_above_bottom(
        tmp_path / "leveling", DiskLevelingPolicy())
    assert horn.regimes.count("density") >= 1
    assert horn_left < leveled_left
