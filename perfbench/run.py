"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-poisson --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` runs the program unmodified and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced jobs and reports
the per-layer metrics (see README.md).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report and,
for traced runs, the span file land in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: end-to-end metrics: name -> unit (every workload reports each one).
END_TO_END = {
    "setup_s": "s",
    "completion_mean_steps": "steps",
    "completion_p99_steps": "steps",
    "write_amp": "ratio",
}

#: layers whose self time is reported as ``<layer>_s``.
SELF_TIME_LAYERS = (
    "serve.planner.plan", "serve.router.step", "serve.admission",
    "policies.online.schedule",
    "core.packed_sets", "core.reduction", "scheduling.horn",
    "scheduling.mphtf", "core.task_to_flush", "core.make_valid",
    "dam.simulate",
    "policies.resilient.run", "dam.journal.append", "dam.journal.flush",
    "dam.journal.scan", "dam.recovery.verify",
    "lsm.disk.get", "lsm.disk.write", "lsm.disk.wal.append",
    "lsm.disk.wal.flush", "lsm.disk.flush", "lsm.disk.compaction",
    "lsm.disk.sstable.write", "lsm.disk.manifest.commit",
    "lsm.disk.sstable.get",
)

#: benchmark phase spans reported by inclusive time as ``<span>_s``.
PHASE_SPANS = ("dam.recovery.reference", "lsm.disk.reopen")

#: workload-specific wall figures from the untraced jobs of a traced run.
WORKLOAD_PHASES = (
    "solve_s", "run_s", "recover_s",
    "get_p50_us", "get_p99_us", "write_p50_us", "write_p999_us",
)

#: model counters copied from the job outcome as ``model.<name>``.
MODEL_COUNTERS = ("steps", "flushes")


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_steps") or name == "model.steps":
        return "steps"
    if name.endswith(".bytes") or name.endswith("bytes_rewritten"):
        return "bytes"
    if "ratio" in name or "per_" in name or name.endswith("_amp") or (
        name == "trace.overhead"
    ):
        return "ratio"
    return "count"


def stamp(args) -> dict:
    """Where and on what this result was measured."""
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            head = None  # no usable git: the source digest still applies
        if head is not None and head.returncode == 0:
            sha = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_job(workload, workdir: Path, instrument=None, run_id: int = 0,
            fs=None):
    """Set up and execute one job; returns ``(setup_s, outcome, extra)``.

    With ``instrument`` (a :class:`perfbench.tracing.SpanRecorder`) the
    job runs traced and ``extra`` holds its layer data; otherwise
    ``extra`` lists any benchmark wrapper found live around the job,
    which must be none.  With ``fs`` (a :class:`~perfbench.tracing.
    CountingFS`) an untraced job runs with that pass-through handle
    installed, to count the bytes and block reads the model metrics
    need.
    """
    from perfbench import tracing
    from repro.util import fsio

    if instrument is None:
        leaked = tracing.wrapped_targets()
        with fsio.installed(fs) if fs is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            state = workload.setup(workdir)
            setup_s = time.perf_counter() - t0
            outcome = workload.execute(state, fs=fs)
            wall = time.perf_counter() - t0
        leaked += tracing.wrapped_targets()
        return setup_s, outcome, {
            "wall_s": wall, "leaked_wrappers": sorted(set(leaked)),
        }
    rec = instrument
    rec.begin_run(run_id)
    with tracing.Instrumentation(rec) as inst:
        t0 = time.perf_counter()
        with rec.span("bench.job"):
            state = workload.setup(workdir)
            setup_s = time.perf_counter() - t0
            outcome = workload.execute(state, spans=rec)
        wall = time.perf_counter() - t0
    return setup_s, outcome, {
        "wall_s": wall,
        "self_ns": dict(rec.self_ns),
        "incl_ns": dict(rec.incl_ns),
        "calls": dict(rec.calls),
        "counts": dict(rec.counts),
        "bytes_written": dict(inst.fs.bytes_written),
        "fsyncs": dict(inst.fs.fsyncs),
        "registry": inst.registry,
    }


def layer_metrics(outcome, extra: dict) -> "dict[str, float]":
    """Per-layer metrics of one traced job."""
    self_ns, calls = extra["self_ns"], extra["calls"]
    counts, written = extra["counts"], extra["bytes_written"]
    fsyncs, model = extra["fsyncs"], outcome.model
    m: "dict[str, float]" = {}
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}_s"] = self_ns.get(layer, 0) / 1e9
    for span in PHASE_SPANS:
        m[f"{span}_s"] = extra["incl_ns"].get(span, 0) / 1e9
    m["bench.unattributed_s"] = self_ns.get("bench.job", 0) / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m["serve.planner.full_replans"] = model.get("plans.full", 0)
    m["serve.planner.incremental_plans"] = model.get("plans.incremental", 0)
    m["serve.planner.replanned_msgs"] = counts.get(
        "serve.planner.replanned_msgs", 0)
    m["serve.planner.planned_per_realized"] = ratio(
        model.get("planned_flushes", 0), model.get("flushes", 0))
    m["dam.simulate_calls"] = calls.get("dam.simulate", 0)
    m["policies.resilient.failed_attempts"] = model.get("failed_attempts", 0)
    m["dam.journal.bytes"] = written.get("journal", 0)
    m["dam.journal.records"] = calls.get("dam.journal.append", 0)
    m["dam.journal.fsyncs"] = fsyncs.get("journal", 0)
    m["dam.recovery.replayed_flushes"] = model.get(
        "recovery.replayed_flushes", 0)
    m["lsm.disk.wal.bytes"] = written.get("wal", 0)
    m["lsm.disk.sstable.bytes"] = written.get("sstable", 0)
    m["lsm.disk.manifest.bytes"] = written.get("manifest", 0)
    m["lsm.disk.flushes"] = counts.get("lsm.disk.flushes", 0)
    m["lsm.disk.compactions"] = counts.get("lsm.disk.compactions", 0)
    m["lsm.disk.compaction.bytes_rewritten"] = counts.get(
        "lsm.disk.compaction.bytes_rewritten", 0)
    m["lsm.disk.fsyncs"] = sum(
        fsyncs.get(c, 0) for c in ("wal", "sstable", "manifest"))
    gets = calls.get("lsm.disk.get", 0)
    probes = calls.get("lsm.disk.sstable.get", 0)
    m["lsm.disk.get.memtable_hit_ratio"] = ratio(
        counts.get("lsm.disk.get.memtable_hits", 0), gets)
    m["lsm.disk.get.runs_probed_per_get"] = ratio(probes, gets)
    m["lsm.disk.get.bloom_skip_ratio"] = ratio(
        counts.get("lsm.disk.sstable.bloom_skips", 0), probes)
    m["lsm.disk.space_amp"] = model.get("space_amp", 0.0)
    for name in MODEL_COUNTERS:
        m[f"model.{name}"] = model.get(name, 0)
    return m


def self_time_table(extra: dict) -> "list[str]":
    wall = extra["wall_s"]
    rows = sorted(extra["self_ns"].items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':<28} {'calls':>8} {'self s':>9} {'share':>6}"]
    for name, ns in rows:
        lines.append(
            f"{name:<28} {extra['calls'].get(name, 0):>8} "
            f"{ns / 1e9:>9.4f} {ns / 1e9 / wall:>6.1%}"
        )
    return lines


def measure(args, workload) -> dict:
    """Repeat jobs for ``args.seconds``; returns the result document."""
    from perfbench import tracing

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    recorder = tracing.SpanRecorder() if args.trace else None
    jobs, traced, problems, walls = [], [], [], []
    try:
        # Warm-up job: imports, lazy set-up and caches; checked, not
        # timed.  It also yields the model metrics, which are the same
        # for every job of a run (the inputs are).
        _setup, warm, info = run_job(workload, workdir,
                                     fs=tracing.CountingFS())
        outcomes = [warm]
        problems += info["leaked_wrappers"]
        deadline = time.perf_counter() + args.seconds
        while len(jobs) < 2 or time.perf_counter() < deadline:
            setup_s, outcome, info = run_job(workload, workdir)
            jobs.append((setup_s, outcome))
            walls.append(info["wall_s"])
            outcomes.append(outcome)
            problems += info["leaked_wrappers"]
            if recorder is not None:
                _s, t_outcome, extra = run_job(
                    workload, workdir, recorder, run_id=len(traced) + 1)
                traced.append((t_outcome, extra))
                outcomes.append(t_outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    notes = sorted({n for o in outcomes for n in o.notes})
    if problems:
        notes.append(f"wrappers live during untraced jobs: {problems}")
    untraced = [o for _s, o in jobs]
    doc = {
        "jobs": [
            {"setup_s": s, "work_s": o.work_s, "units": o.units,
             "failed": o.failed, "phases": o.phases, "model": o.model,
             "latency_us": _percentiles(o.latencies_us)}
            for s, o in jobs
        ],
        "notes": notes,
    }
    wall = wall_metrics(untraced)
    if recorder is None:
        metrics = {"setup_s": _median([s for s, _o in jobs])}
        metrics.update(model_metrics(warm))
        units = END_TO_END
        doc["wall"] = wall
    else:
        per_job = [layer_metrics(o, x) for o, x in traced]
        metrics = {
            k: statistics.fmean(m[k] for m in per_job) for k in per_job[0]
        }
        for name in WORKLOAD_PHASES:
            metrics[f"workload.{name}"] = _median(
                [o.phases.get(name, 0.0) for o in untraced])
        for name, value in wall.items():
            metrics[f"workload.{name}"] = value
        metrics["trace.overhead"] = _median(
            [x["wall_s"] for _o, x in traced]) / _median(walls)
        over = [
            name for _o, x in traced for name, ns in x["self_ns"].items()
            if ns / 1e9 > x["wall_s"]
        ]
        if over:
            notes.append(f"self time above job wall time: {sorted(set(over))}")
        units = {k: unit_of(k) for k in metrics}
        last = traced[-1][1]
        doc["self_time"] = self_time_table(last)
        doc["registry"] = last["registry"]
        doc["bytes_written"] = last["bytes_written"]
        doc["fsyncs"] = last["fsyncs"]
        doc["spans_dropped"] = recorder.dropped
        _write_spans(args, recorder)
    doc["metrics"] = {
        k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()
    }
    doc["attempted"], doc["failed"] = attempted, failed
    return doc


def model_metrics(outcome) -> "dict[str, float]":
    """End-to-end model cost of a job (deterministic for its inputs)."""
    lat = outcome.model_latency
    return {
        "completion_mean_steps": float(lat.mean()) if lat.size else 0.0,
        "completion_p99_steps": float(np.percentile(lat, 99))
        if lat.size else 0.0,
        "write_amp": float(outcome.model.get("write_amp", 0.0)),
    }


def wall_metrics(untraced) -> "dict[str, float]":
    """Wall-clock figures of the run's best job.

    On a shared machine whose CPU speed drifts by tens of percent over
    seconds, the fastest of many identical jobs repeats far better
    across runs than their median (see README.md, "Noise").
    """
    timed = [o for o in untraced if o.work_s > 0 and o.latencies_us.size]
    out = {"throughput_ops_per_s": max(
        (o.units / o.work_s for o in timed), default=0.0)}
    for name, q in (("latency_p50_us", 50), ("latency_p99_us", 99),
                    ("latency_p999_us", 99.9)):
        out[name] = min(
            (float(np.percentile(o.latencies_us, q)) for o in timed),
            default=0.0)
    return out


def _percentiles(latencies_us) -> "dict[str, float]":
    if not latencies_us.size:
        return {}
    return {f"p{q}": float(np.percentile(latencies_us, q))
            for q in (50, 99, 99.9)}


def _write_spans(args, recorder) -> None:
    path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    with open(path, "w") as f:
        for name, start, end, parent, run in recorder.spans:
            f.write(json.dumps({"name": name, "start_ns": start,
                                "end_ns": end, "parent": parent,
                                "run": run}) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("serve-poisson", "batch-journaled", "kv-mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    info = stamp(args)
    doc = measure(args, workload)
    doc["stamp"] = info
    report = OUT / (f"{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.report.json")
    report.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print("stamp: " + json.dumps(info, sort_keys=True))
    for line in doc.get("self_time", []):
        print(line)
    for note in doc["notes"]:
        print(f"FAILURE: {note}")
    for name, value in doc.get("wall", {}).items():
        print(f"{'(wall, not gated) ' + name:<40} {value:>14.6g}")
    for name, m in doc["metrics"].items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": doc["failed"] == 0 and not doc["notes"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
