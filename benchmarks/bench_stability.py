"""E16: long-run performance stability — stall windows and pacing.

Mean throughput hides the failure mode that matters in production
(Luo & Carey, PAPERS.md): windows where the service goes dark while
amortized maintenance catches up.  Three tables: the stall profile of
the two MMPP scenarios, the de-amortization trade-off curve
(``--pace`` budget vs stall length / tail sojourn / mean), and the
acceptance demonstration that a paced flash-crowd run shortens its
worst stall *and* its p99.9 sojourn for a bounded mean regression.
Raw documents land in ``results/BENCH_stability.json`` — the
schema-versioned perf curve future PRs extend.

The full multi-million-op runs are nightly-only (``-m nightly``); the
push-time tables use shorter seeded runs of the same scenarios.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.common import RESULTS_DIR, emit_table
from repro.stability import StabilityConfig, run_stability

ARTIFACT = "BENCH_stability.json"

#: The acceptance-criterion run: seeded flash-crowd with compaction
#: interference (fault pipeline), big flushes on a tall tree.  The
#: paced variant must shorten the worst stall and the p99.9 tail at
#: <= 15% mean regression (asserted in test_e16_pacing_tradeoff).  The
#: interference rate is 10%: at 5% the coalescing gates drain the crowd
#: with a single one-window stall, leaving pacing nothing to flatten.
DEMO = dict(scenario="flash-crowd", messages=8000, seed=1,
            fault_rate=0.10, B=32, height=4)
DEMO_PACE = 32


def _artifact(update: dict) -> None:
    """Merge ``update`` into ``results/BENCH_stability.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, ARTIFACT)
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.update(update)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _row(doc: dict) -> list:
    stalls, soj = doc["stalls"], doc["sojourn"]
    p999 = soj["p999"] if soj["p999"] is not None else float("nan")
    return [doc["windows"]["n"], stalls["count"], stalls["stalled_windows"],
            stalls["max_len"], soj["p50"], soj["p99"], p999, soj["mean"]]


def test_e16_stall_scenarios(benchmark):
    rows = []
    art = {}
    for scenario, messages in (("diurnal", 30_000), ("flash-crowd", 8000)):
        cfg = StabilityConfig(scenario=scenario, messages=messages, seed=1,
                              fault_rate=0.05, B=32, height=4)
        doc = run_stability(cfg)
        a = doc["stalls"]["attribution"]
        rows.append([scenario, messages, *_row(doc),
                     a["interference"], a["arrival-lull"], a["backlog"]])
        art[scenario] = doc
    emit_table(
        "E16_stability_scenarios",
        ["scenario", "msgs", "windows", "stalls", "stall wins", "max len",
         "p50", "p99", "p99.9", "mean", "interf", "lull", "backlog"],
        rows,
        note="stall profile of the two MMPP regimes under 5% fault "
        "interference.  Diurnal lulls are attributed to arrivals, not "
        "counted against the engine; flash-crowd stalls are "
        "interference- and backlog-driven.",
    )
    _artifact({"scenarios": art})
    benchmark(
        lambda: run_stability(
            StabilityConfig(scenario="diurnal", messages=2000, seed=1)
        )
    )


def test_e16_pacing_tradeoff(benchmark):
    """The acceptance demonstration: pace flattens the worst stall and
    the p99.9 tail of the flash-crowd run at a bounded mean cost."""
    rows = []
    art = {}
    docs = {}
    for pace in (0, 16, DEMO_PACE, 64):
        doc = run_stability(StabilityConfig(**DEMO, pace=pace))
        docs[pace] = doc
        label = str(pace) if pace else "off"
        bound = doc["pace"]["max_step_work"] if pace else "-"
        rows.append([label, bound, *_row(doc)])
        art[f"pace_{label}"] = doc
        if pace:
            # The controller's contract: realized per-step flushed work
            # never exceeds the budget, on any shard, at any step.
            assert doc["pace"]["max_step_work"] <= pace, doc["pace"]
    emit_table(
        "E16_pacing_tradeoff",
        ["pace", "step work", "windows", "stalls", "stall wins", "max len",
         "p50", "p99", "p99.9", "mean"],
        rows,
        note="flash-crowd + 10% interference, pace budget sweep.  Tight "
        "budgets (16) throttle the catch-up drain: a short stall, but the "
        "worst tail and mean; loose budgets (64) keep the unpaced worst "
        "stall; the right budget (32) shortens the worst stall and the "
        "p99.9 tail within the 15% mean bound — the Das-Iacono-Nekrich "
        "trade.",
    )
    base, paced = docs[0], docs[DEMO_PACE]
    assert paced["stalls"]["max_len"] < base["stalls"]["max_len"], (
        paced["stalls"], base["stalls"])
    assert paced["sojourn"]["p999"] < base["sojourn"]["p999"], (
        paced["sojourn"], base["sojourn"])
    regression = (paced["sojourn"]["mean"] - base["sojourn"]["mean"]) \
        / base["sojourn"]["mean"]
    assert regression <= 0.15, regression
    art["criterion"] = {
        "max_stall_len": {"unpaced": base["stalls"]["max_len"],
                          "paced": paced["stalls"]["max_len"]},
        "p999": {"unpaced": base["sojourn"]["p999"],
                 "paced": paced["sojourn"]["p999"]},
        "mean_regression": round(regression, 4),
        "pace": DEMO_PACE,
    }
    _artifact({"pacing_tradeoff": art})
    benchmark(
        lambda: run_stability(
            StabilityConfig(scenario="flash-crowd", messages=1000, seed=1,
                            pace=8)
        )
    )


@pytest.mark.nightly
def test_e16_longrun_nightly(benchmark):
    """Multi-million-op stability runs (nightly: ~15 min of sim time)."""
    rows = []
    art = {}
    for scenario, pace in (("diurnal", 0), ("flash-crowd", 0),
                           ("flash-crowd", DEMO_PACE)):
        cfg = StabilityConfig(scenario=scenario, messages=2_000_000, seed=1,
                              fault_rate=0.05, B=32, height=4, pace=pace)
        doc = run_stability(cfg)
        label = f"{scenario}{'_paced' if pace else ''}"
        rows.append([label, *_row(doc)])
        # The long windows series dominates the artifact; keep the
        # distributions and drop the raw per-window counters.
        slim = {k: v for k, v in doc.items() if k != "windows"}
        slim["windows"] = {"window_steps": doc["windows"]["window_steps"],
                           "n": doc["windows"]["n"]}
        art[label] = slim
        if pace:
            assert doc["pace"]["max_step_work"] <= pace, doc["pace"]
    emit_table(
        "E16_stability_longrun",
        ["run", "windows", "stalls", "stall wins", "max len",
         "p50", "p99", "p99.9", "mean"],
        rows,
        note="2M-message seeded runs; with n >= 1000 completions per "
        "run the p99.9 guard is always satisfied, so the tail column "
        "is exact, not n/a.",
    )
    _artifact({"longrun": art})
    benchmark(
        lambda: run_stability(
            StabilityConfig(scenario="diurnal", messages=2000, seed=1)
        )
    )
