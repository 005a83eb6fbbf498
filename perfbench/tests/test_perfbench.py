"""Self-tests of the benchmark: determinism, pass-through counting, and
that untraced jobs run the program unmodified.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.workloads import (
    DELETE,
    PUT,
    WORKLOADS,
    BatchJournaled,
    KVMixed,
    ServePoisson,
)
from repro.core import solve_worms
from repro.dam.journal import JournalWriter
from repro.obs import current_obs
from repro.obs.hooks import DISABLED
from repro.util import fsio

ROOT = Path(__file__).resolve().parents[2]

#: small inputs: each job takes well under a second.
SMALL = {
    ServePoisson.name: lambda seed: ServePoisson(seed, messages=1_500),
    BatchJournaled.name: lambda seed: BatchJournaled(seed, messages=600),
    KVMixed.name: lambda seed: KVMixed(seed, ops=3_000),
}


def _traced(workload, workdir: Path):
    recorder = tracing.SpanRecorder()
    _setup, outcome, extra = run.run_job(workload, workdir, recorder, 1)
    return outcome, extra


def _counters(outcome, extra) -> dict:
    """Every deterministic counter a traced job yields."""
    return {
        "model": outcome.model,
        "units": outcome.units,
        "calls": extra["calls"],
        "counts": extra["counts"],
        "bytes_written": extra["bytes_written"],
        "fsyncs": extra["fsyncs"],
        "registry": extra["registry"]["counters"],
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_model_counters_repeat_exactly(name, seed, tmp_path):
    first = _traced(SMALL[name](seed), tmp_path)
    second = _traced(SMALL[name](seed), tmp_path)
    assert first[0].failed == 0 and not first[0].notes
    assert _counters(*first) == _counters(*second)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_model_metrics_repeat_and_are_nonzero(name, tmp_path):
    def measured():
        _setup, outcome, _info = run.run_job(
            SMALL[name](7), tmp_path, fs=tracing.CountingFS())
        assert outcome.failed == 0 and not outcome.notes
        return run.model_metrics(outcome)

    first = measured()
    assert set(first) == set(run.END_TO_END) - {"setup_s"}
    assert all(v > 0 for v in first.values())
    assert measured() == first


def test_seed_changes_inputs():
    assert ServePoisson(1, 500).trace != ServePoisson(2, 500).trace
    a, b = KVMixed(1, 500), KVMixed(2, 500)
    assert (a.kinds, a.keys, a.values) != (b.kinds, b.keys, b.values)
    x = BatchJournaled(1, 300).setup(Path("."))
    y = BatchJournaled(2, 300).setup(Path("."))
    assert list(x.instance.targets) != list(y.instance.targets)


def _kv_files(workload: KVMixed, directory: Path) -> dict:
    state = workload.setup(directory)
    for kind, key, value in zip(workload.kinds, workload.keys,
                                workload.values):
        if kind == PUT:
            state.store.put(key, value)
        elif kind == DELETE:
            state.store.delete(key)
    state.store.close()
    return {p.name: p.read_bytes() for p in sorted(state.directory.iterdir())}


def _journal_bytes(path: Path) -> bytes:
    workload = BatchJournaled(3, 400)
    inst = workload.setup(path.parent).instance
    ordered = [f for _t, f in solve_worms(inst).schedule.iter_timed()]
    writer = JournalWriter(path, meta={"messages": 400}, sync=False)
    try:
        workload._executor(inst, writer).run(ordered)
    finally:
        writer.close()
    return path.read_bytes()


def test_counting_fs_leaves_disk_bytes_unchanged(tmp_path):
    workload = KVMixed(4, ops=3_000)
    plain = _kv_files(workload, tmp_path / "plain")
    counting_fs = tracing.CountingFS()
    with fsio.installed(counting_fs):
        counted = _kv_files(workload, tmp_path / "counted")
    assert plain == counted
    assert counting_fs.bytes_written["wal"] > 0
    assert counting_fs.bytes_written["sstable"] > 0
    assert counting_fs.fsyncs["manifest"] > 0

    plain_journal = _journal_bytes(tmp_path / "plain.journal")
    counting_fs = tracing.CountingFS()
    with fsio.installed(counting_fs):
        counted_journal = _journal_bytes(tmp_path / "counted.journal")
    assert plain_journal == counted_journal
    assert counting_fs.bytes_written["journal"] == len(counted_journal)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_jobs_run_without_wrappers(name, tmp_path):
    workload = SMALL[name](5)
    _setup, outcome, info = run.run_job(workload, tmp_path)
    assert info["leaked_wrappers"] == []
    assert outcome.failed == 0

    recorder = tracing.SpanRecorder()
    with tracing.Instrumentation(recorder):
        live = tracing.wrapped_targets()
        assert current_obs().enabled
    assert len(live) >= len(tracing.layers(tracing.CountingFS()))
    assert tracing.wrapped_targets() == []
    assert fsio.current_fs() is fsio.REAL_FS
    assert current_obs() is DISABLED


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_time_fits_in_job_wall_time(name, tmp_path):
    _outcome, extra = _traced(SMALL[name](6), tmp_path)
    assert extra["self_ns"]
    for layer, ns in extra["self_ns"].items():
        assert 0 <= ns / 1e9 <= extra["wall_s"], layer
    assert sum(extra["self_ns"].values()) / 1e9 <= extra["wall_s"]


def test_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
