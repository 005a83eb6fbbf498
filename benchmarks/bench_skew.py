"""E8: skew sensitivity — Zipf sweep and the clustered nightly purge.

Skew is where scheduling decisions matter: hot subtrees should complete
first (they carry the mean), and cold stragglers should not be able to
stall the hot traffic.  Also covers the single-leaf burst corner (pure
batching, every policy near-optimal) as a calibration row.
"""

from __future__ import annotations

from benchmarks.common import emit_table
from repro.analysis.lower_bounds import worms_lower_bound
from repro.analysis.stats import compare_policies
from repro.policies import EagerPolicy, GreedyBatchPolicy, WormsPolicy
from repro.tree import beps_shape_tree
from repro.workloads import (
    clustered_purge_instance,
    single_leaf_burst_instance,
    uniform_instance,
    zipf_instance,
)

POLICIES = [EagerPolicy(), GreedyBatchPolicy(), WormsPolicy()]


def test_e8_zipf_sweep(benchmark):
    topo = beps_shape_tree(64, 0.5, 256)
    rows = []
    for theta in (0.0, 0.5, 1.0, 1.5, 2.0):
        inst = zipf_instance(topo, 2000, P=4, B=64, theta=theta, seed=4)
        stats = compare_policies(inst, POLICIES)
        lb = worms_lower_bound(inst)
        rows.append(
            [
                theta,
                stats["eager"].mean,
                stats["greedy-batch"].mean,
                stats["worms"].mean,
                round(stats["worms"].total / lb, 2),
            ]
        )
    emit_table(
        "E8_zipf",
        ["theta", "eager mean", "greedy mean", "worms mean", "worms/LB"],
        rows,
        note="rising skew concentrates work; worms keeps the lead at "
        "every skew, since the gate coalesces concentrated traffic into "
        "full-B flushes.",
    )
    inst = zipf_instance(topo, 1000, P=4, B=64, theta=1.0, seed=4)
    benchmark(lambda: WormsPolicy().schedule(inst))


def test_e8_clustered_purge_and_burst(benchmark):
    topo = beps_shape_tree(64, 0.5, 256)
    rows = []
    for label, inst in (
        (
            "clustered 90/10",
            clustered_purge_instance(
                topo, 2000, P=4, B=64, n_clusters=2, cluster_fraction=0.9, seed=5
            ),
        ),
        (
            "single-leaf burst",
            single_leaf_burst_instance(topo, 2000, P=4, B=64, seed=5),
        ),
        ("uniform (ref)", uniform_instance(topo, 2000, P=4, B=64, seed=5)),
    ):
        stats = compare_policies(inst, POLICIES)
        rows.append(
            [label]
            + [stats[p.name].mean for p in POLICIES]
            + [round(stats["worms"].total / max(1, worms_lower_bound(inst)), 2)]
        )
    emit_table(
        "E8_clustered",
        ["workload"] + [p.name for p in POLICIES] + ["worms/LB"],
        rows,
        note="the nightly-purge cluster pattern is the paper's motivating "
        "scenario; the burst row calibrates: all batching policies "
        "converge when everything targets one leaf.",
    )
    inst = clustered_purge_instance(topo, 1000, P=4, B=64, seed=5)
    benchmark(lambda: GreedyBatchPolicy().schedule(inst))
