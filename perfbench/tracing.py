"""Outside-in layer tracing for the traced benchmark run.

Nothing here edits the program.  A traced job runs inside an
:class:`Instrumentation` scope, which for its duration

* replaces each public entry point named by :func:`layers` with a
  wrapper that opens a span around the call (in the defining module and
  in every ``repro`` module that imported the function by name, so the
  call sites see it too);
* installs a :class:`CountingFS` as the ambient
  :mod:`repro.util.fsio` handle, counting bytes written and fsyncs per
  file class;
* enables a :mod:`repro.obs` metrics registry (its own tracer stays
  disabled), so the counters the program already emits are collected.

Leaving the scope restores every original.  Spans are kept in memory as
``(name, start_ns, end_ns, parent_index, run_id)`` rows; the self time
of a layer is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# Import every module whose functions are wrapped (or that imports one
# by name) before any wrapper is installed: a module imported while a
# wrapper is live would bind the wrapper and keep it after restore.
import repro.core.pipeline  # noqa: F401
import repro.dam.journal  # noqa: F401
import repro.dam.trace  # noqa: F401
import repro.dam.validator  # noqa: F401
import repro.lsm.disk  # noqa: F401
import repro.policies.resilient  # noqa: F401
import repro.policies.worms_policy  # noqa: F401
import repro.serve.loop  # noqa: F401
from repro.obs import observed
from repro.obs.tracer import Tracer
from repro.util import fsio

#: marker attribute set on every wrapper this module installs.
MARKER = "__perfbench_layer__"

_WAL_FILE = re.compile(r"^wal-\d+\.log")


def file_class(path) -> str:
    """The storage class a file belongs to: wal, sstable, manifest, journal."""
    name = os.path.basename(str(path))
    if _WAL_FILE.match(name):
        return "wal"
    if name.startswith("sst-"):
        return "sstable"
    if name.startswith("MANIFEST"):
        return "manifest"
    return "journal"


class CountingFS(fsio.RealFS):
    """Pass-through fs handle counting bytes written, fsyncs and reads.

    Counts are kept per :func:`file_class`; directory fsyncs are charged
    to the class of the file whose rename they make durable.  ``reads``
    counts ``read`` calls on open files: for SSTables, one per block.
    """

    def __init__(self) -> None:
        self.bytes_written: Counter = Counter()
        self.fsyncs: Counter = Counter()
        self.reads: Counter = Counter()

    def read(self, f, n: int = -1) -> bytes:
        self.reads[file_class(f.name)] += 1
        return super().read(f, n)

    def write(self, f, data: bytes) -> int:
        n = super().write(f, data)
        self.bytes_written[file_class(f.name)] += n
        return n

    def fsync(self, f) -> None:
        super().fsync(f)
        self.fsyncs[file_class(f.name)] += 1

    def fsync_dir(self, path, *, of=None) -> None:
        super().fsync_dir(path, of=of)
        self.fsyncs[file_class(of if of is not None else path)] += 1


class SpanRecorder:
    """In-memory span store with running self/inclusive time per layer.

    Only the first ``keep`` spans are stored row by row (the rest are
    counted in ``dropped``); the per-layer sums cover every span.
    """

    def __init__(self, keep: int = 200_000) -> None:
        self.keep = int(keep)
        self.spans: "list[list]" = []
        self.dropped = 0
        self.run_id = 0
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: "list[list]" = []
        self._open: Counter = Counter()

    def begin_run(self, run_id: int) -> None:
        """Start a new job: reset the per-layer sums, keep stored spans."""
        self.run_id = int(run_id)
        self.self_ns.clear()
        self.incl_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.run_id])
        else:
            index = -1
            self.dropped += 1
        self._open[name] += 1
        self._stack.append([name, time.perf_counter_ns(), 0, index])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, index = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self._open[name] -= 1
        if not self._open[name]:
            # Outermost span of this name: nested same-name spans are
            # already inside this interval.
            self.incl_ns[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a phase of a job)."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``name`` is the span name, or a function of the call's positional
    arguments returning it.  ``hook(recorder, args)`` runs before the
    call and may return a function of the result run after it.  With
    ``span=False`` only the hook runs (for very hot, tiny calls).
    """

    name: "str | Callable[[tuple], str]"
    target: str
    hook: "Callable | None" = None
    span: bool = True


def _journal_layer(op: str) -> Callable[[tuple], str]:
    def name(args: tuple) -> str:
        if file_class(args[0].path) == "wal":
            return f"lsm.disk.wal.{op}"
        return f"dam.journal.{op}"
    return name


def _count_replanned(rec: SpanRecorder, args: tuple):
    rec.count("serve.planner.replanned_msgs", len(args[3]))


def _count_memtable_hit(rec: SpanRecorder, args: tuple):
    store, key = args[0], args[1]
    rec.count("lsm.disk.get.memtable_hits", int(key in store.memtable))


def _count_bloom_skip(rec: SpanRecorder, args: tuple):
    return lambda hit: rec.count("lsm.disk.sstable.bloom_skips", int(not hit))


def _count_rewrite(fs: CountingFS):
    def hook(rec: SpanRecorder, args: tuple):
        before = fs.bytes_written["sstable"]

        def after(tasks):
            rec.count("lsm.disk.compactions", len(tasks))
            rec.count(
                "lsm.disk.compaction.bytes_rewritten",
                fs.bytes_written["sstable"] - before,
            )
        return after
    return hook


def _count_flush(rec: SpanRecorder, args: tuple):
    return lambda meta: rec.count("lsm.disk.flushes", int(meta is not None))


def layers(fs: CountingFS) -> "list[Layer]":
    """Every traced entry point, grouped by the workload that uses it."""
    return [
        # serving loop (serve-poisson)
        Layer("serve.planner.plan", "repro.serve.planner:EpochPlanner.plan"),
        Layer("serve.planner.plan", "repro.serve.planner:plan_flushes",
              _count_replanned),
        Layer("serve.router.step", "repro.serve.router:ShardEngine.step"),
        Layer("serve.admission",
              "repro.serve.admission:AdmissionController.offer"),
        Layer("serve.admission",
              "repro.serve.admission:AdmissionController.drain"),
        Layer("policies.online.schedule",
              "repro.policies.online:online_density_schedule"),
        # scheduling kernel and pipeline stages
        Layer("core.packed_sets", "repro.core.packed:build_packed_sets"),
        Layer("core.reduction", "repro.core.reduction:reduce_to_scheduling"),
        Layer("scheduling.horn", "repro.scheduling.horn:compute_horn"),
        Layer("scheduling.mphtf", "repro.scheduling.mphtf:mphtf_schedule"),
        Layer("core.task_to_flush",
              "repro.core.task_to_flush:task_schedule_to_flush_schedule"),
        Layer("core.make_valid", "repro.core.valid_conversion:make_valid"),
        Layer("dam.simulate", "repro.dam.simulator:simulate"),
        # executor, journal and recovery (batch-journaled)
        Layer("policies.resilient.run",
              "repro.policies.resilient:ResilientExecutor.run"),
        Layer(_journal_layer("append"),
              "repro.dam.journal:JournalWriter.append"),
        Layer(_journal_layer("flush"),
              "repro.dam.journal:JournalWriter.flush"),
        Layer("dam.journal.scan", "repro.dam.journal:scan_journal"),
        Layer("dam.recovery.verify",
              "repro.dam.journal:RecoveryManager.recover"),
        # durable KV engine (kv-mixed)
        Layer("lsm.disk.get", "repro.lsm.disk.kvstore:KVStore.get",
              _count_memtable_hit),
        Layer("lsm.disk.write", "repro.lsm.disk.kvstore:KVStore.put"),
        Layer("lsm.disk.write", "repro.lsm.disk.kvstore:KVStore.delete"),
        Layer("lsm.disk.flush",
              "repro.lsm.disk.kvstore:KVStore.flush_memtable", _count_flush),
        Layer("lsm.disk.compaction", "repro.lsm.disk.kvstore:KVStore.maintain",
              _count_rewrite(fs)),
        Layer("lsm.disk.sstable.write", "repro.lsm.disk.sstable:write_sstable"),
        Layer("lsm.disk.manifest.commit",
              "repro.lsm.disk.manifest:commit_manifest"),
        Layer("lsm.disk.sstable.get",
              "repro.lsm.disk.sstable:SSTableReader.get"),
        Layer("lsm.disk.sstable.bloom",
              "repro.lsm.disk.sstable:SSTableReader.may_contain",
              _count_bloom_skip, span=False),
    ]


def _resolve(target: str):
    """``(owner, attribute, original)`` for a layer target."""
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _bindings(owner, attr: str, original):
    """Every ``(namespace_owner, name)`` holding ``original``.

    For a method that is the class attribute; for a module function it
    is the defining module plus each ``repro`` module that imported it.
    """
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, name))
    return found


def _wrap(fn, layer: Layer, rec: SpanRecorder):
    name, hook = layer.name, layer.hook
    fixed = name if isinstance(name, str) else None
    if not layer.span:
        def wrapper(*args, **kwargs):
            after = hook(rec, args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
    else:
        def wrapper(*args, **kwargs):
            after = hook(rec, args) if hook is not None else None
            rec.enter(fixed or name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            if after is not None:
                after(result)
            return result
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARKER, True)
    return wrapper


def wrapped_targets() -> "list[str]":
    """Names in ``repro`` modules and classes that hold a benchmark wrapper."""
    found = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for name, value in list(vars(mod).items()):
            members = vars(value).items() if isinstance(value, type) else ()
            if getattr(value, MARKER, False):
                found.add(f"{mod_name}.{name}")
            for attr, member in members:
                if getattr(member, MARKER, False):
                    found.add(f"{mod_name}.{name}.{attr}")
    return sorted(found)


class Instrumentation:
    """Scope in which every layer is traced (see the module docstring).

    ``with Instrumentation(recorder) as inst:`` — afterwards
    ``inst.fs`` holds the byte/fsync counts and ``inst.registry`` the
    program's own metrics registry snapshot.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.fs = CountingFS()
        self.registry: dict = {}
        self._patches: "list[tuple]" = []
        self._stack = contextlib.ExitStack()
        self._obs = None

    def __enter__(self) -> "Instrumentation":
        try:
            for layer in layers(self.fs):
                owner, attr, original = _resolve(layer.target)
                wrapper = _wrap(original, layer, self.recorder)
                for ns, name in _bindings(owner, attr, original):
                    self._patches.append((ns, name, original))
                    setattr(ns, name, wrapper)
            self._stack.enter_context(fsio.installed(self.fs))
            self._obs = self._stack.enter_context(
                observed(tracer=Tracer(enabled=False))
            )
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        self._stack.close()
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    def __exit__(self, *exc) -> None:
        if self._obs is not None:
            self.registry = self._obs.metrics.snapshot()
        self._restore()
