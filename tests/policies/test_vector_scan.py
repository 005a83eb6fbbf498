"""The vectorized readiness scan must be invisible: byte-identical output.

``ResilientExecutor(scan="vector")`` prefilters the priority scan with
numpy but re-checks every candidate with the exact scalar gate, so the
realized schedule must match the scalar scan — and the gated executor —
flush for flush, step for step, on every input the scalar path accepts.
"""

from __future__ import annotations

import pytest

from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.dam import validate_valid
from repro.dam.schedule import Flush
from repro.faults import FaultInjector, FaultPlan
from repro.policies import GatedExecutor, ResilientExecutor, WormsPolicy
from repro.policies.resilient import VECTOR_SCAN_AUTO_THRESHOLD
from repro.scheduling.mphtf import mphtf_schedule
from repro.serve.router import ShardEngine
from repro.tree import Message, balanced_tree, path_tree
from repro.util.errors import InvalidInstanceError
from tests.conftest import make_uniform


def ordered_flushes(schedule):
    return [f for _t, f in schedule.iter_timed()]


def run_with(inst, ordered, scan):
    return ResilientExecutor(inst, scan=scan).run(list(ordered))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vector_scan_byte_identical_to_scalar(seed):
    inst = make_uniform(balanced_tree(3, 3), n_messages=200, P=3, B=16,
                        seed=seed)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    scalar = run_with(inst, ordered, "scalar")
    vector = run_with(inst, ordered, "vector")
    assert vector.steps == scalar.steps
    assert vector.steps == GatedExecutor(inst).run(list(ordered)).steps


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_raw_order_coalesces_identically_on_every_gate(seed):
    """``WormsPolicy`` returns an already-merged schedule, so feeding it
    back leaves nothing to merge; the raw Lemma 8 order does not.  All
    four gates must merge it identically."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=200, P=3, B=16,
                        seed=seed)
    reduced = reduce_to_scheduling(inst)
    plan = task_schedule_to_flush_schedule(
        reduced, mphtf_schedule(reduced.scheduling)
    )
    ordered = ordered_flushes(plan)
    scalar = ResilientExecutor(inst, scan="scalar")
    vector = ResilientExecutor(inst, scan="vector")
    steps = scalar.run(list(ordered)).steps
    assert vector.run(list(ordered)).steps == steps
    assert GatedExecutor(inst).run(list(ordered)).steps == steps
    engine = ShardEngine(0, inst.topology, inst.P, inst.B)
    for m, target in enumerate(inst.targets.tolist()):
        engine.admit(m, target, 1)
    engine.set_plan(list(ordered))
    t = 0
    while engine.in_flight:
        t += 1
        engine.step(t)
    assert engine.schedule.steps == steps
    assert scalar.stats.coalesced > 0
    assert vector.stats.coalesced == engine.stats.coalesced \
        == scalar.stats.coalesced
    assert sum(len(step) for step in steps) < len(ordered)


def test_vector_scan_identical_on_skewed_instances():
    """Deep path tree: front-blocked rejects dominate the scan."""
    topo = path_tree(5)
    inst = make_uniform(topo, n_messages=80, P=1, B=8, seed=9)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    assert run_with(inst, ordered, "vector").steps \
        == run_with(inst, ordered, "scalar").steps


def test_vector_scan_survives_replans():
    """Non-laminar input forces a mid-run re-plan (arrays rebuilt)."""
    topo = path_tree(2)
    inst = WORMSInstance(topo, [Message(0, 2)], P=1, B=4)
    bad = [Flush(1, 2, (0,))]  # first hop missing: deadlock -> replan
    scalar = ResilientExecutor(inst, max_replans=1, scan="scalar")
    vector = ResilientExecutor(inst, max_replans=1, scan="vector")
    s = scalar.run(list(bad))
    v = vector.run(list(bad))
    assert v.steps == s.steps
    assert vector.stats.replans == scalar.stats.replans == 1
    assert validate_valid(inst, v).completion_times.tolist() == [2]


def test_vector_scan_identical_through_pending_compaction():
    """Enough flushes that the lazy pending-list compaction triggers."""
    inst = make_uniform(balanced_tree(2, 4), n_messages=400, P=2, B=8,
                        seed=13)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    assert run_with(inst, ordered, "vector").steps \
        == run_with(inst, ordered, "scalar").steps


def test_faulty_runs_ignore_the_vector_request():
    """With an injector the scalar path's bookkeeping is load-bearing;
    scan="vector" must not change a faulty run."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=150, P=2, B=12,
                        seed=5)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))

    def faulty(scan):
        injector = FaultInjector(FaultPlan.uniform(0.25), seed=11)
        return ResilientExecutor(
            inst, injector, retry_budget=4, max_replans=4, scan=scan
        ).run(list(ordered))

    assert faulty("vector").steps == faulty("scalar").steps


def test_auto_mode_thresholds_on_pending_size():
    assert VECTOR_SCAN_AUTO_THRESHOLD > 0
    # Small fault-free instances stay scalar under "auto" but the result
    # is identical either way — auto is a performance switch only.
    inst = make_uniform(balanced_tree(3, 2), n_messages=60, P=2, B=12,
                        seed=2)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    assert run_with(inst, ordered, "auto").steps \
        == run_with(inst, ordered, "scalar").steps


def test_unknown_scan_mode_rejected():
    inst = make_uniform(balanced_tree(3, 2), n_messages=10, P=2, B=12,
                        seed=0)
    with pytest.raises(InvalidInstanceError):
        ResilientExecutor(inst, scan="simd")
