"""Tests for the crash-consistent execution journal + recovery manager.

The load-bearing property (the PR's acceptance bar): truncate the
journal at *every* byte offset of a real run and recovery either resumes
to completion times identical to the uninterrupted run, or raises a
typed :class:`JournalCorruptionError` — it never returns a wrong answer.
The quick suite proves it on a small run; the ``fuzz`` marker scales it
up and adds per-offset byte flips for the scheduled CI job.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.dam import RecoveryManager, scan_journal
from repro.dam.journal import (
    JournalWriter,
    MAGIC,
    REC_CHECKPOINT,
    REC_END,
    REC_FLUSH,
    REC_META,
    encode_record,
)
from repro.faults import flip_byte, truncate_at
from repro.policies import GatedExecutor, ResilientExecutor, WormsPolicy
from repro.tree import balanced_tree
from repro.util.errors import JournalCorruptionError
from tests.conftest import make_uniform


def ordered_flushes(schedule):
    return [f for _t, f in schedule.iter_timed()]


@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    """One journaled run: (instance, reference schedule, journal path)."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                        seed=3)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    path = tmp_path_factory.mktemp("journal") / "run.journal"
    sched = GatedExecutor(inst, journal=path, checkpoint_every=4).run(
        list(ordered)
    )
    return inst, sched, path


# ----------------------------------------------------------------------
# File format and scan.
# ----------------------------------------------------------------------
def test_journal_round_trip(journaled_run):
    _inst, sched, path = journaled_run
    scan = scan_journal(path)
    assert scan.torn_bytes == 0 and scan.torn_reason == ""
    types = [r["type"] for r in scan.records]
    assert types[0] == REC_META
    assert types[-1] == REC_END
    flushes = [r for r in scan.records if r["type"] == REC_FLUSH]
    assert len(flushes) == sched.n_flushes
    # Journaled flushes replay to exactly the realized schedule.
    by_step: dict[int, list] = {}
    for r in flushes:
        by_step.setdefault(r["t"], []).append(
            (r["src"], r["dest"], tuple(r["msgs"]))
        )
    for t in range(1, sched.n_steps + 1):
        assert sorted(by_step.get(t, [])) == sorted(
            (f.src, f.dest, f.messages) for f in sched.flushes_at(t)
        )


def test_checkpoint_cadence(journaled_run):
    _inst, sched, path = journaled_run
    cps = [r["t"] for r in scan_journal(path).records
           if r["type"] == REC_CHECKPOINT]
    assert cps[0] == 0  # initial state
    assert cps[-1] == sched.n_steps  # final state
    assert any(t % 4 == 0 and 0 < t < sched.n_steps for t in cps)


def test_scan_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.journal"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(JournalCorruptionError) as exc:
        scan_journal(path)
    assert exc.value.reason == "bad-magic"


def test_scan_tolerates_torn_tail(tmp_path):
    path = tmp_path / "torn.journal"
    with JournalWriter(path, meta={"n_messages": 1}) as w:
        w.append({"type": REC_FLUSH, "t": 1, "src": 0, "dest": 1,
                  "msgs": [0]})
    whole = scan_journal(path)
    assert len(whole.records) == 2
    torn = truncate_at(path, path.stat().st_size - 3,
                       out=tmp_path / "t.journal")
    scan = scan_journal(torn)
    assert len(scan.records) == 1  # the flush record was torn away
    assert scan.torn_bytes > 0 and scan.torn_reason


def test_scan_raises_on_midfile_corruption(tmp_path):
    path = tmp_path / "corrupt.journal"
    with JournalWriter(path, meta={"n_messages": 1}) as w:
        w.append({"type": REC_FLUSH, "t": 1, "src": 0, "dest": 1,
                  "msgs": [0]})
    # Flip a payload byte of the *first* record: data follows it, so this
    # must be corruption, not a tear.
    flip_byte(path, len(MAGIC) + 4 + struct.calcsize("<II") + 2,
              in_place=True)
    with pytest.raises(JournalCorruptionError) as exc:
        scan_journal(path)
    assert exc.value.reason in ("bad-crc", "bad-payload")
    assert exc.value.offset > 0


def test_crc_actually_guards_payload():
    rec = encode_record({"type": "end", "t": 3})
    length, crc = struct.unpack_from("<II", rec)
    payload = rec[8:]
    assert len(payload) == length
    assert zlib.crc32(payload) == crc
    assert json.loads(payload)["t"] == 3


def test_execution_journals_stay_json_version_1(tmp_path):
    path = tmp_path / "v1.journal"
    rec = {"type": REC_FLUSH, "t": 1, "src": 0, "dest": 1, "msgs": [0]}
    with JournalWriter(path) as w:
        w.append(rec)
    assert path.read_bytes() == MAGIC + struct.pack("<I", 1) + \
        encode_record(rec)
    assert scan_journal(path).version == 1


def test_scan_rejects_unknown_version(tmp_path):
    path = tmp_path / "v9.journal"
    path.write_bytes(MAGIC + struct.pack("<I", 9)
                     + encode_record({"type": "end", "t": 1}))
    with pytest.raises(JournalCorruptionError) as exc:
        scan_journal(path)
    assert exc.value.reason == "bad-version"
    assert "version 9" in str(exc.value)


# ----------------------------------------------------------------------
# Recovery manager.
# ----------------------------------------------------------------------
def test_recover_completed_run(journaled_run):
    inst, sched, path = journaled_run
    report = RecoveryManager(path).recover(inst, sched)
    assert report.run_completed
    assert report.torn_bytes == 0
    assert report.replayed_flushes == sched.n_flushes
    assert report.resumed_from_step == sched.n_steps


def test_recover_truncated_run_matches_uninterrupted(journaled_run, tmp_path):
    inst, sched, path = journaled_run
    reference = RecoveryManager(path).recover(inst, sched).result
    killed = truncate_at(path, path.stat().st_size // 2,
                         out=tmp_path / "killed.journal")
    report = RecoveryManager(killed).recover(inst, sched)
    assert not report.run_completed
    assert report.resumed_from_step < sched.n_steps
    assert (
        report.result.completion_times.tolist()
        == reference.completion_times.tolist()
    )


def test_repair_truncates_torn_tail_in_place(journaled_run, tmp_path):
    _inst, _sched, path = journaled_run
    killed = truncate_at(path, path.stat().st_size - 5,
                         out=tmp_path / "torn.journal")
    manager = RecoveryManager(killed)
    cut = manager.repair()
    assert cut > 0
    rescan = scan_journal(killed)
    assert rescan.torn_bytes == 0
    assert killed.stat().st_size == rescan.valid_bytes


def test_recover_rejects_wrong_instance(journaled_run):
    inst, sched, path = journaled_run
    other = make_uniform(balanced_tree(3, 3), n_messages=60, P=2, B=12,
                         seed=3)
    with pytest.raises(JournalCorruptionError) as exc:
        RecoveryManager(path).recover(other, sched)
    assert exc.value.reason == "instance-mismatch"


def test_recover_rejects_wrong_schedule(journaled_run):
    inst, _sched, path = journaled_run
    other_order = ordered_flushes(WormsPolicy().schedule(
        make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                     seed=99)
    ))
    other_sched = GatedExecutor(
        make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                     seed=99)
    ).run(list(other_order))
    with pytest.raises(JournalCorruptionError) as exc:
        RecoveryManager(path).recover(inst, other_sched)
    assert exc.value.reason == "schedule-mismatch"


# ----------------------------------------------------------------------
# Zero-overhead contract: journal off = nothing changes, journal on =
# identical realized schedule.
# ----------------------------------------------------------------------
def test_journal_does_not_change_schedule(journaled_run):
    inst, sched, _path = journaled_run
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    bare = GatedExecutor(inst).run(list(ordered))
    assert bare.steps == sched.steps


def test_resilient_journal_does_not_change_schedule(tmp_path):
    inst = make_uniform(balanced_tree(3, 3), n_messages=100, P=2, B=12,
                        seed=8)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    bare = ResilientExecutor(inst).run(list(ordered))
    journaled = ResilientExecutor(
        inst, journal=tmp_path / "r.journal", checkpoint_every=4
    ).run(list(ordered))
    assert bare.steps == journaled.steps


def test_checkpoint_every_validation():
    inst = make_uniform(balanced_tree(2, 2), n_messages=10, P=2, B=8)
    from repro.util.errors import InvalidInstanceError

    with pytest.raises(InvalidInstanceError):
        GatedExecutor(inst, journal="x.journal", checkpoint_every=0)


# ----------------------------------------------------------------------
# The kill-at-any-offset property.
# ----------------------------------------------------------------------
def _assert_exact_or_typed(inst, sched, damaged, reference):
    try:
        report = RecoveryManager(damaged).recover(inst, sched)
    except JournalCorruptionError:
        return "typed"
    assert (
        report.result.completion_times.tolist()
        == reference.completion_times.tolist()
    )
    return "exact"


def test_kill_at_every_offset(journaled_run, tmp_path):
    """Truncate at every byte: exact recovery or typed error, never wrong."""
    inst, sched, path = journaled_run
    reference = RecoveryManager(path).recover(inst, sched).result
    size = path.stat().st_size
    damaged = tmp_path / "killed.journal"
    outcomes = {"exact": 0, "typed": 0}
    for offset in range(size + 1):
        truncate_at(path, offset, out=damaged)
        outcomes[_assert_exact_or_typed(inst, sched, damaged, reference)] += 1
    assert outcomes["exact"] + outcomes["typed"] == size + 1
    # Most offsets land after the meta record and recover exactly.
    assert outcomes["exact"] > outcomes["typed"]


@pytest.mark.fuzz
def test_fuzz_kill_at_every_offset_faulty_run(tmp_path):
    """Scheduled-job version: every offset of a *faulty* run's journal.

    The quick test sweeps a fault-free journal; this one guarantees the
    property also holds when the journal carries fault records (retries,
    partial deliveries) interleaved with flushes and checkpoints.  Kept
    to a few hundred messages on purpose: each offset replays a
    recovery, so the sweep is quadratic-ish in run length.
    """
    inst = make_uniform(balanced_tree(3, 3), n_messages=250, P=3, B=16,
                        seed=13)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    path = tmp_path / "run.journal"
    from repro.faults import FaultInjector, FaultPlan

    injector = FaultInjector(FaultPlan.uniform(0.05), seed=5)
    sched = ResilientExecutor(
        inst, injector, journal=path, checkpoint_every=8
    ).run(list(ordered))
    reference = RecoveryManager(path).recover(inst, sched).result
    size = path.stat().st_size
    damaged = tmp_path / "killed.journal"
    for offset in range(size + 1):
        truncate_at(path, offset, out=damaged)
        _assert_exact_or_typed(inst, sched, damaged, reference)


@pytest.mark.fuzz
def test_fuzz_flip_every_byte(journaled_run, tmp_path):
    """Flip each byte in place: exact recovery or typed error, never wrong.

    A flip can be absorbed (tail region), detected (checksum), or — in a
    length prefix — reinterpreted as a torn tail; in every case recovery
    must be exact on the surviving prefix or raise the typed error.
    """
    inst, sched, path = journaled_run
    reference = RecoveryManager(path).recover(inst, sched).result
    size = path.stat().st_size
    damaged = tmp_path / "flipped.journal"
    for offset in range(size):
        flip_byte(path, offset, out=damaged)
        try:
            report = RecoveryManager(damaged).recover(inst, sched)
        except JournalCorruptionError:
            continue
        assert (
            report.result.completion_times.tolist()
            == reference.completion_times.tolist()
        )
