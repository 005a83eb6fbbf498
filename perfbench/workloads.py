"""The benchmark's three workloads.

Each workload turns a seed into inputs, builds the program objects one
job needs (:meth:`setup`, timed as set-up) and runs the job
(:meth:`execute`), timing the phases a user waits for and checking every
output.  A job returns an :class:`Outcome`; the harness in ``run.py``
repeats jobs for the requested seconds and reports medians.

Why these three: each does most of one layer's work and little or none
of another's.

* ``serve-poisson`` — the serving loop re-plans many small instances
  (epoch planning and shard stepping dominate); no storage, no journal.
* ``batch-journaled`` — one large offline instance through the paper
  pipeline, a fault-injected journaled execution and a crash recovery;
  the only workload where the executor, journal and recovery work.
* ``kv-mixed`` — a closed-loop client on the durable KV store; WAL,
  flush, compaction and the SSTable read path, and no scheduling code.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import solve_worms
from repro.dam import validate_valid
from repro.dam.journal import JournalWriter, RecoveryManager
from repro.faults import FaultInjector, FaultPlan
from repro.lsm.disk import KVStore
from repro.policies.resilient import ResilientExecutor
from repro.serve import ServeConfig, ServiceLoop
from repro.tree import beps_shape_tree
from repro.util.errors import ReproError
from repro.workloads import uniform_instance

clock = time.perf_counter


@dataclass
class Outcome:
    """What one job did, timed and checked."""

    #: messages or operations the timed phases completed.
    units: int
    attempted: int
    failed: int
    #: wall seconds of the timed phases.
    work_s: float
    #: per-request wall latency (µs), one entry per message/operation.
    latencies_us: np.ndarray
    #: per-request completion time in the DAM model, in steps: a
    #: message's sojourn or completion step; a KV get's SSTable block
    #: reads (memtable and Bloom probes are in memory, so free).
    model_latency: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: workload-specific wall-clock figures (phase times, latency splits).
    phases: "dict[str, float]" = field(default_factory=dict)
    #: deterministic model counters: equal for equal inputs.
    model: "dict[str, float]" = field(default_factory=dict)
    #: one line per detected failure.
    notes: "list[str]" = field(default_factory=list)


def _failed(attempted: int, exc: Exception) -> Outcome:
    return Outcome(0, attempted, attempted, 0.0, np.zeros(0),
                   notes=[f"{type(exc).__name__}: {exc}"])


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _seed(seed: int, stream: int) -> int:
    """Independent derived seed for one input stream of a workload."""
    return int(np.random.SeedSequence((int(seed), stream)).generate_state(1)[0])


class ServePoisson:
    """Open-loop Poisson arrivals into the plain in-process serving loop.

    8 msgs/step, uniform keys, 4 shards, ``engine="sim"``, CLI-default
    tree/P/B/epoch, no journal.  The arrival trace is generated here and
    handed to the loop as ``arrivals="trace"``.
    """

    name = "serve-poisson"
    rate = 8.0
    shards = 4

    def __init__(self, seed: int, messages: int = 10_000) -> None:
        key_space = self.shards * ServeConfig.leaves
        rng = np.random.default_rng(_seed(seed, 1))
        counts = []
        total = 0
        while total < messages:
            n = min(int(rng.poisson(self.rate)), messages - total)
            counts.append(n)
            total += n
        steps = np.repeat(np.arange(1, len(counts) + 1), counts)
        keys = rng.integers(0, key_space, messages)
        self.trace = tuple(zip(steps.tolist(), keys.tolist()))
        self.messages = messages

    def setup(self, workdir: Path) -> ServiceLoop:
        config = ServeConfig(
            arrivals="trace", trace=self.trace, messages=self.messages,
            rate=self.rate, shards=self.shards, engine="sim",
        )
        return ServiceLoop(config)

    def execute(self, loop: ServiceLoop, spans=None, fs=None) -> Outcome:
        t0 = clock()
        try:
            report = loop.run()
        except ReproError as exc:
            return _failed(self.messages, exc)
        wall = clock() - t0
        snap = report.snapshot
        notes = []
        failed = snap["shed"]
        if snap["arrived"] != self.messages or (
            snap["arrived"] != snap["completed"] + snap["shed"]
        ):
            notes.append(
                f"conservation: {self.messages} sent, {snap['arrived']} "
                f"arrived, {snap['completed']} completed, {snap['shed']} shed"
            )
            failed += abs(snap["arrived"] - snap["completed"] - snap["shed"])
            failed += abs(self.messages - snap["arrived"])
        wrong = self._misdelivered(loop, report)
        if wrong:
            notes.append(f"{wrong} completion(s) not at the target leaf")
        failed += wrong
        sojourns = np.asarray(report.metrics.sojourns(), dtype=float)
        step_s = wall / max(1, report.n_steps)
        stats = report.planner_stats
        realized = sum(s.flushes for s in report.shard_stats)
        return Outcome(
            units=snap["completed"], attempted=self.messages,
            failed=min(failed, self.messages), work_s=wall,
            latencies_us=sojourns * step_s * 1e6,
            model_latency=sojourns,
            phases={"run_s": wall, "step_us": step_s * 1e6},
            model={
                "write_amp": realized * loop.config.B / max(
                    1, snap["completed"]),
                "steps": report.n_steps,
                "flushes": realized,
                "planned_flushes": stats.planned_flushes,
                "plans.full": stats.full_replans,
                "plans.incremental": stats.incremental_plans,
                "plans.noop": stats.noop_epochs,
                "plans.forced": stats.forced_replans,
            },
            notes=notes,
        )

    def _misdelivered(self, loop: ServiceLoop, report) -> int:
        """Completions that are not a flush into the message's target leaf
        of its home shard at the completion step."""
        expected = [loop.router.route(key) for _step, key in self.trace]
        landed: "dict[int, int]" = {}
        for sid, schedule in enumerate(report.shard_schedules):
            for t, flush in schedule.iter_timed():
                for gid in flush.messages:
                    if expected[gid] == (sid, flush.dest):
                        landed[gid] = t
        return sum(
            1 for gid, step in report.completions.items()
            if landed.get(gid) != step
        )


@dataclass
class _BatchState:
    instance: object
    workdir: Path


class BatchJournaled:
    """One offline job: solve, journaled faulty execution, crash recovery.

    CLI-default instance shape (``beps_shape_tree``, P=4, B=64, 256
    leaves, uniform targets).  ``solve_worms`` plans; a
    ``ResilientExecutor`` runs the plan at a 0.1 uniform flush-fault rate
    with a non-fsync'd journal checkpointing every 8 steps; then a copy
    of the journal cut at 3/5 of its length is recovered the way
    ``repro recover`` does it (re-derive the reference run, scan, verify).
    """

    name = "batch-journaled"
    P, B, leaves = 4, 64, 256
    fault_rate = 0.1
    checkpoint_every = 8

    def __init__(self, seed: int, messages: int = 4_000) -> None:
        self.messages = messages
        self.instance_seed = _seed(seed, 1)
        self.fault_seed = _seed(seed, 2)

    def setup(self, workdir: Path) -> _BatchState:
        topo = beps_shape_tree(self.B, 0.5, self.leaves)
        inst = uniform_instance(
            topo, self.messages, P=self.P, B=self.B, seed=self.instance_seed
        )
        return _BatchState(inst, workdir)

    def _executor(self, inst, journal=None) -> ResilientExecutor:
        return ResilientExecutor(
            inst,
            FaultInjector(FaultPlan.uniform(self.fault_rate),
                          seed=self.fault_seed),
            journal=journal,
            checkpoint_every=self.checkpoint_every,
        )

    def execute(self, state: _BatchState, spans=None, fs=None) -> Outcome:
        inst = state.instance
        path = state.workdir / "batch.journal"
        cut = state.workdir / "batch-cut.journal"
        phase = _phases(spans)
        try:
            t0 = clock()
            with phase("bench.solve"):
                solved = solve_worms(inst)
            t1 = clock()
            ordered = [f for _t, f in solved.schedule.iter_timed()]
            with phase("bench.run"):
                writer = JournalWriter(
                    path, meta={"messages": self.messages}, sync=False
                )
                executor = self._executor(inst, writer)
                try:
                    executed = executor.run(list(ordered))
                finally:
                    writer.close()
            t2 = clock()
            valid = validate_valid(inst, executed)
            data = path.read_bytes()
            cut.write_bytes(data[: len(data) * 3 // 5])
            t3 = clock()
            with phase("bench.recover"):
                with phase("dam.recovery.reference"):
                    reference = self._executor(inst).run(list(ordered))
                report = RecoveryManager(cut).recover(inst, reference)
            t4 = clock()
        except ReproError as exc:
            return _failed(self.messages, exc)
        finally:
            for p in (path, cut):
                p.unlink(missing_ok=True)
        notes = []
        failed = 0
        if reference.steps != executed.steps:
            notes.append("re-derived run differs from the journaled run")
            failed = self.messages
        diverged = int(np.sum(
            report.result.completion_times != valid.completion_times
        ))
        if diverged:
            notes.append(f"{diverged} recovered completion(s) diverge")
            failed = max(failed, diverged)
        solve_s, run_s, recover_s = t1 - t0, t2 - t1, t4 - t3
        done = valid.completion_times.astype(float)
        step_s = run_s / max(1, executed.n_steps)
        return Outcome(
            units=self.messages, attempted=self.messages, failed=failed,
            work_s=solve_s + run_s + recover_s,
            latencies_us=(solve_s + done * step_s) * 1e6,
            model_latency=done,
            phases={"solve_s": solve_s, "run_s": run_s,
                    "recover_s": recover_s},
            model={
                "write_amp": executed.n_flushes * self.B / self.messages,
                "steps": executed.n_steps,
                "flushes": executed.n_flushes,
                "solve.steps": solved.schedule.n_steps,
                "failed_attempts": executor.stats.failed_attempts,
                "journal.bytes": len(data),
                "recovery.replayed_flushes": report.replayed_flushes,
                "recovery.resumed_from_step": report.resumed_from_step,
            },
            notes=notes,
        )


@dataclass
class _KVState:
    store: KVStore
    directory: Path


GET, PUT, DELETE = 0, 1, 2


class KVMixed:
    """One closed-loop client on the durable KV store.

    ``sync=False`` (page-cache durability), default Horn-density
    compaction, memtable and size ratio.  Gets, puts and deletes
    (50/40/10) over a key space far larger than the memtable, so gets
    reach SSTables and flush/compaction cycle many times.
    """

    name = "kv-mixed"
    key_space = 50_000

    def __init__(self, seed: int, ops: int = 12_000) -> None:
        rng = np.random.default_rng(_seed(seed, 1))
        draw = rng.random(ops)
        self.kinds = np.where(draw < 0.5, GET,
                              np.where(draw < 0.9, PUT, DELETE)).tolist()
        self.keys = [f"k{k:06d}" for k in
                     rng.integers(0, self.key_space, ops).tolist()]
        self.values = rng.integers(0, 1 << 30, ops).tolist()
        self.ops = ops

    def setup(self, workdir: Path) -> _KVState:
        directory = workdir / "kv"
        shutil.rmtree(directory, ignore_errors=True)
        return _KVState(KVStore(directory, sync=False), directory)

    def execute(self, state: _KVState, spans=None, fs=None) -> Outcome:
        """Run the client; with ``fs`` (a counting fs handle installed as
        the ambient one) also record each get's SSTable block reads and
        the bytes written."""
        store = state.store
        oracle: "dict[str, int]" = {}
        lat = np.empty(self.ops)
        reads = []
        wrong = 0
        tick = time.perf_counter_ns
        t0 = clock()
        try:
            for i, (kind, key) in enumerate(zip(self.kinds, self.keys)):
                if kind == GET:
                    if fs is not None:
                        reads.append(fs.reads["sstable"])
                    a = tick()
                    got = store.get(key)
                    b = tick()
                    if fs is not None:
                        reads[-1] = fs.reads["sstable"] - reads[-1]
                    if got != oracle.get(key):
                        wrong += 1
                elif kind == PUT:
                    value = self.values[i]
                    a = tick()
                    store.put(key, value)
                    b = tick()
                    oracle[key] = value
                else:
                    a = tick()
                    store.delete(key)
                    b = tick()
                    oracle.pop(key, None)
                lat[i] = b - a
        except ReproError as exc:
            store.close()
            return _failed(self.ops, exc)
        wall = clock() - t0
        written = 0 if fs is None else sum(
            fs.bytes_written[c] for c in ("wal", "sstable", "manifest"))
        notes = [f"{wrong} get(s) disagree with the oracle"] if wrong else []
        phase = _phases(spans)
        try:
            # Reopen the store without closing it first: what a crash
            # after the last acknowledged write leaves behind.
            with phase("lsm.disk.reopen"):
                reopened = KVStore(state.directory, sync=False)
            try:
                recovered = dict(reopened.items())
            finally:
                reopened.close()
        except ReproError as exc:
            store.close()
            return _failed(self.ops, exc)
        lost = sum(1 for k, v in oracle.items() if recovered.get(k) != v)
        lost += sum(1 for k in recovered if k not in oracle)
        if lost:
            notes.append(f"{lost} key(s) differ after reopen")
        compactions = store.compactions
        flushes = store.stats()["wal_gen"]
        store.close()
        lat_us = lat / 1e3
        kinds = np.asarray(self.kinds)
        gets, writes = lat_us[kinds == GET], lat_us[kinds != GET]
        live = sum(len(k) + len(json.dumps(v)) for k, v in oracle.items())
        disk = sum(p.stat().st_size for p in state.directory.iterdir())
        return Outcome(
            units=self.ops, attempted=self.ops, failed=wrong + lost,
            work_s=wall, latencies_us=lat_us,
            model_latency=np.asarray(reads, dtype=float),
            phases={
                "get_p50_us": percentile(gets, 50),
                "get_p99_us": percentile(gets, 99),
                "write_p50_us": percentile(writes, 50),
                "write_p999_us": percentile(writes, 99.9),
            },
            model={
                "flushes": flushes,
                "compactions": compactions,
                "live_bytes": live,
                "disk_bytes": disk,
                "space_amp": disk / max(1, live),
                **({} if fs is None
                   else {"write_amp": written / self.user_bytes()}),
            },
            notes=notes,
        )

    def user_bytes(self) -> int:
        """Bytes of keys and values the client wrote (for write amp)."""
        total = 0
        for kind, key, value in zip(self.kinds, self.keys, self.values):
            if kind == PUT:
                total += len(key) + len(json.dumps(value))
            elif kind == DELETE:
                total += len(key)
        return total


def _phases(spans):
    """``phase(name)`` context: a benchmark span when tracing, else none."""
    if spans is None:
        return lambda name: nullcontext()
    return spans.span


WORKLOADS = {w.name: w for w in (ServePoisson, BatchJournaled, KVMixed)}
