"""E12/E13: resilience under fault injection — inflation and path costs.

Four questions:

* how much completion time does each policy lose as the fault rate
  rises (mean and p99 inflation vs its own fault-free run) — under iid
  faults and under correlated Markov-modulated bursts;
* does the resilience machinery cost anything when nothing fails (it
  must not: the zero-fault path is byte-identical to the gated
  executor);
* what does crash-consistent journaling cost (it must be pay-as-you-go:
  zero when off, IO-bound when on, and never change the schedule);
* did the executor scan optimizations actually buy the promised
  headroom at multi-million-message scale (before/after timings).
"""

from __future__ import annotations

import time

from benchmarks.common import emit_table
from repro.analysis.resilience import resilience_sweep
from repro.dam.simulator import simulate
from repro.faults import FaultInjector, FaultPlan
from repro.policies import GatedExecutor, ResilientExecutor, WormsPolicy
from repro.tree import balanced_tree, beps_shape_tree
from repro.workloads import uniform_instance

RATES = (0.05, 0.1, 0.2)

RESILIENCE_HEADERS = ["policy", "rate", "mean", "p99", "IOs", "mean-x",
                      "p99-x", "retries", "replans", "stalled"]


def make_instance(n_messages: int = 800, seed: int = 0):
    B, P = 32, 4
    topo = beps_shape_tree(B=B, eps=0.5, n_leaves=128)
    return uniform_instance(topo, n_messages, P=P, B=B, seed=seed)


def test_e12_fault_inflation(benchmark):
    inst = make_instance()
    cells = resilience_sweep(inst, fault_rates=RATES, seed=0)
    rows = [c.row() for c in cells]
    emit_table(
        "E12_fault_inflation",
        RESILIENCE_HEADERS,
        rows,
        note="closed-loop resilient execution; inflation vs the policy's "
        "own fault-free run.  All realized schedules validate.",
    )
    ordered = WormsPolicy().priority_order(inst)
    injector = FaultInjector(FaultPlan.uniform(0.1), seed=0)
    benchmark(
        lambda: ResilientExecutor(inst, injector).run(list(ordered))
    )


def test_e12_open_vs_closed_loop(benchmark):
    """Open-loop replay under faults loses messages; closed-loop does not."""
    inst = make_instance(400)
    policy = WormsPolicy()
    sched = policy.schedule(inst)
    ordered = policy.priority_order(inst)
    rows = []
    for rate in RATES:
        injector = FaultInjector(FaultPlan.uniform(rate), seed=1)
        open_loop = simulate(inst, sched, faults=injector)
        lost = int((open_loop.completion_times == 0).sum())
        closed = ResilientExecutor(
            inst, FaultInjector(FaultPlan.uniform(rate), seed=1)
        ).run(list(ordered))
        closed_sim = simulate(inst, closed)
        rows.append([
            rate,
            lost,
            int((closed_sim.completion_times == 0).sum()),
            len(open_loop.fault_events),
            closed.n_steps,
        ])
    emit_table(
        "E12_open_vs_closed_loop",
        ["rate", "open-loop lost", "closed-loop lost", "events", "IOs"],
        rows,
        note="open-loop = fixed schedule replayed under faults (messages "
        "strand mid-tree); closed-loop = resilient executor (always "
        "completes).",
    )
    injector = FaultInjector(FaultPlan.uniform(0.1), seed=1)
    benchmark(lambda: simulate(inst, sched, faults=injector))


def test_e12_zero_fault_overhead(benchmark):
    """The fault path must cost nothing when no faults are configured."""
    inst = make_instance()
    ordered = WormsPolicy().priority_order(inst)
    gated = GatedExecutor(inst).run(list(ordered))
    resilient = ResilientExecutor(inst).run(list(ordered))
    assert gated.steps == resilient.steps, "zero-fault path diverged"
    emit_table(
        "E12_zero_fault_overhead",
        ["executor", "IOs", "flushes"],
        [["gated", gated.n_steps, gated.n_flushes],
         ["resilient", resilient.n_steps, resilient.n_flushes]],
        note="byte-identical schedules: resilience is free until a fault "
        "fires.",
    )
    benchmark(lambda: ResilientExecutor(inst).run(list(ordered)))


def test_e13_burst_inflation(benchmark):
    """Correlated bursts: the regime fault-aware admission is built for.

    Uses a dense tree (every node on a root-leaf path carries traffic)
    so a burst's subtree actually intersects in-flight flushes; on the
    sparse B^eps tree most bursts land on idle subtrees and the table
    degenerates to all-1.0 inflation.
    """
    inst = uniform_instance(balanced_tree(3, 3), 800, P=2, B=12, seed=0)
    rows = []
    for fault_aware in (False, True):
        cells = resilience_sweep(
            inst, [WormsPolicy()], fault_rates=(0.2, 0.4, 0.8), seed=0,
            burst=True, fault_aware=fault_aware,
        )
        for c in cells:
            rows.append(
                [("aware" if fault_aware else "blind")] + c.row()[1:]
                + [c.stats.stalled_skips, c.stats.fault_aware_skips,
                   c.stats.wait_steps]
            )
    emit_table(
        "E13_burst_inflation",
        ["admission"] + RESILIENCE_HEADERS[1:]
        + ["probes", "cached-skips", "waits"],
        rows,
        note="Markov-modulated stall -> partial -> failed bursts on a "
        "random subtree (BurstPlan.from_rate); blind = reactive recovery "
        "only, aware = --fault-aware admission (stall-window cache + "
        "degraded-capacity triage).",
    )
    ordered = WormsPolicy().priority_order(inst)
    from repro.faults import BurstInjector, BurstPlan

    benchmark(
        lambda: ResilientExecutor(
            inst,
            BurstInjector(FaultPlan.none(), BurstPlan.from_rate(0.2),
                          inst.topology, seed=0),
            fault_aware=True,
        ).run(list(ordered))
    )


def test_e13_journal_overhead(benchmark, tmp_path):
    """Journaling must not change the schedule; cost is write-bound."""
    inst = make_instance()
    ordered = WormsPolicy().priority_order(inst)
    bare = GatedExecutor(inst).run(list(ordered))
    rows = [["off", "-", bare.n_steps, bare.n_flushes, 0]]
    for every in (64, 8, 1):
        path = tmp_path / f"cp{every}.journal"
        journaled = GatedExecutor(
            inst, journal=path, checkpoint_every=every
        ).run(list(ordered))
        assert journaled.steps == bare.steps, "journaling changed decisions"
        rows.append(
            ["on", every, journaled.n_steps, journaled.n_flushes,
             path.stat().st_size]
        )
    emit_table(
        "E13_journal_overhead",
        ["journal", "checkpoint-every", "IOs", "flushes", "bytes"],
        rows,
        note="identical realized schedules in every row; denser "
        "checkpoints buy less replay on recovery for more bytes.",
    )
    path = tmp_path / "bench.journal"
    benchmark(
        lambda: GatedExecutor(inst, journal=path).run(list(ordered))
    )


#: Pre-optimization timings, measured at commit e2ed945 (the PR 1 tree)
#: with the same script as the "after" column: balanced_tree(4, 4),
#: P=4, B=64, seed=3, FaultPlan.uniform(0.05), seed=9, retry_budget=6.
#: The bottleneck was FaultInjector._rng building a fresh numpy
#: Generator per query (~25 us x ~200k queries at n=20k).
_SCAN_BASELINES = {20000: (0.17, 6.31), 100000: (3.31, 138.70)}


def test_e13_scan_optimization(benchmark):
    """Before/after wall-clock of the executor scan + injector memo."""
    rows = []
    for n, (clean_before, faulty_before) in _SCAN_BASELINES.items():
        topo = balanced_tree(4, 4)
        inst = uniform_instance(topo, n, P=4, B=64, seed=3)
        ordered = WormsPolicy().priority_order(inst)
        t0 = time.perf_counter()
        GatedExecutor(inst).run(list(ordered))
        clean_after = time.perf_counter() - t0
        injector = FaultInjector(FaultPlan.uniform(0.05), seed=9)
        t0 = time.perf_counter()
        ResilientExecutor(
            inst, injector, retry_budget=6, max_replans=4
        ).run(list(ordered))
        faulty_after = time.perf_counter() - t0
        rows.append([
            n, clean_before, round(clean_after, 2), faulty_before,
            round(faulty_after, 2),
            f"{faulty_before / max(faulty_after, 1e-9):.1f}x",
        ])
    emit_table(
        "E13_scan_optimization",
        ["messages", "clean-before (s)", "clean-after (s)",
         "faulty-before (s)", "faulty-after (s)", "faulty speedup"],
        rows,
        note="before = commit e2ed945; after = memoized fault draws + "
        "O(1) first-message reject + static parking + lazy pending "
        "compaction with a live open-flush count, running the planned "
        "Lemma 8 order through the one gate (ShardEngine.step, drained by "
        "the executors).  The after runs coalesce ready same-edge "
        "flushes, so their realized schedules (fewer, fuller flushes) "
        "differ from the before runs'.",
    )
    topo = balanced_tree(4, 4)
    inst = uniform_instance(topo, 20000, P=4, B=64, seed=3)
    ordered = WormsPolicy().priority_order(inst)
    benchmark(lambda: GatedExecutor(inst).run(list(ordered)))
