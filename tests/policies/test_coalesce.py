"""Coalescing in the admission gates: the rule and its guarantees.

When a gate selects a flush ``src -> dest`` it folds in later pending
flushes on the same edge that are eligible and fully ready this step,
within ``B`` messages and ``dest``'s space bound: first those sharing
the lead's next hop, then the rest first-fit in priority order.  Under
test: the merge bounds, which members may join, the merge order, per-member
fault bookkeeping (one injector outcome, each member's own retry,
backoff and remainder), the completion-only triage pass, the pacing
budget, and — over random trees and instances — that the paper's plans
never deadlock the gate and every realized schedule is valid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.resilience import resilience_sweep
from repro.core import solve_worms
from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.dam import validate_valid
from repro.dam.schedule import Flush
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import OUTCOME_FAILED, OUTCOME_OK, OUTCOME_PARTIAL
from repro.obs import observed
from repro.policies import GatedExecutor, ResilientExecutor, WormsPolicy
from repro.policies.executor import (
    EdgeQueues,
    as_pending,
    back_off,
    parking_and_hop,
    settle_partial,
)
from repro.scheduling.mphtf import mphtf_schedule
from repro.serve import ServeConfig, ServiceLoop
from repro.serve.router import ShardEngine
from repro.tree import Message, balanced_tree, beps_shape_tree, path_tree
from repro.workloads import uniform_instance
from tests.conftest import make_uniform


class ScriptedInjector:
    """Fault source with per-step outcomes and capacities.

    ``outcomes[t]`` is ``"failed"`` or the set of message ids a partial
    outcome delivers; steps without an entry succeed.
    """

    is_zero_plan = False

    def __init__(self, outcomes=None, capacity=None) -> None:
        self.outcomes = outcomes or {}
        self.capacity = capacity or {}
        self.attempts: "list[tuple[int, tuple[int, ...]]]" = []
        self.events: list = []

    def effective_p(self, t, P):
        return self.capacity.get(t, P)

    def is_stalled(self, t, node):
        return False

    def stall_window_end(self, t, node):
        return None

    def flush_outcome(self, t, src, dest, msgs):
        self.attempts.append((t, msgs))
        outcome = self.outcomes.get(t)
        if outcome is None:
            return OUTCOME_OK, msgs
        if outcome == "failed":
            return OUTCOME_FAILED, ()
        return OUTCOME_PARTIAL, tuple(m for m in msgs if m in outcome)


def edge_queue(flushes, targets, topo=path_tree(2)):
    """Pending flushes and their queues; node 1 is internal by default."""
    pending = as_pending(flushes, targets.__getitem__, topo)
    return pending, EdgeQueues(pending)


def probe(edges, lead, *args, **kw):
    """The members ``coalesce`` takes for ``lead``, checked and re-opened.

    Re-opening them keeps successive probes of one queue independent.
    """
    flush, members = edges.coalesce(lead, *args, **kw)
    assert all(pf.done for pf in members)
    assert flush.messages == tuple(sorted(lead.flush.messages + sum(
        (pf.flush.messages for pf in members), ())))
    for pf in members:
        pf.done = False
    return members


def mphtf_order(inst):
    """The raw Lemma 8 flush order, before any gate merged it."""
    reduced = reduce_to_scheduling(inst)
    sigma = mphtf_schedule(reduced.scheduling)
    plan = task_schedule_to_flush_schedule(reduced, sigma)
    return [f for _t, f in plan.iter_timed()]


def run_engine(topo, P, B, ordered, targets, **kw):
    """Drive a single ShardEngine over a one-shot plan to completion."""
    engine = ShardEngine(0, topo, P, B, **kw)
    for m, target in enumerate(targets):
        engine.admit(m, int(target), 1)
    engine.set_plan(list(ordered))
    t = 0
    while engine.in_flight:
        t += 1
        engine.step(t)
        assert t < 10_000
    return engine


# ----------------------------------------------------------------------
# The rule itself (EdgeQueues.coalesce)
# ----------------------------------------------------------------------

def test_members_fit_within_size_room_first_fit():
    targets = [1] * 8
    pending, edges = edge_queue([
        Flush(0, 1, (0,)),
        Flush(0, 1, (1, 2, 3)),
        Flush(0, 1, (4, 5)),
        Flush(0, 1, (6,)),
        Flush(0, 1, (7,)),
    ], targets)
    location = [0] * 8
    # lead has 1 message; B = 4 leaves room for 3 more.
    members = probe(edges, pending[0], 1, location.__getitem__, set(),
                    size_room=3, park_room=3)
    assert members == [pending[1]]
    # The 3-message member does not fit in 2: passed over, smaller fit.
    members = probe(edges, pending[0], 1, location.__getitem__, set(),
                    size_room=2, park_room=2)
    assert members == [pending[2]]
    members = probe(edges, pending[0], 1, location.__getitem__, set(),
                    size_room=1, park_room=1)
    assert members == [pending[3]]
    assert probe(edges, pending[0], 1, location.__getitem__, set(),
                 size_room=0, park_room=0) == []


def test_members_respect_dest_space_bound():
    # Node 1 is internal in path_tree(2): messages targeting 2 park there.
    targets = [2, 2, 1, 2]
    pending, edges = edge_queue([
        Flush(0, 1, (0,)),
        Flush(0, 1, (1,)),
        Flush(0, 1, (2,)),
        Flush(0, 1, (3,)),
    ], targets)
    location = [0] * 4
    members = probe(edges, pending[0], 1, location.__getitem__, set(),
                    size_room=8, park_room=1)
    # One parking member fits; the completion (parking 0) always fits.
    assert members == [pending[1], pending[2]]
    assert [pf.parking for pf in pending] == [1, 1, 0, 1]


def test_members_must_be_later_eligible_and_ready():
    targets = [1] * 6
    pending, edges = edge_queue([
        Flush(0, 1, (0,)),
        Flush(0, 1, (1,)),  # earlier than the lead: never a member
        Flush(0, 1, (2,)),  # lead
        Flush(0, 1, (3,)),  # backing off
        Flush(0, 1, (4, 5)),  # message 5 not at the source yet
        Flush(0, 2, (6,)),  # another edge
    ], targets + [2])
    location = [0, 0, 0, 0, 0, 3, 0]
    pending[3].eligible_at = 2
    lead = pending[2]
    assert probe(edges, lead, 1, location.__getitem__, set(), 8, 8) == []
    # Eligible from step 2 on.
    assert probe(edges, lead, 2, location.__getitem__, set(), 8, 8) \
        == [pending[3]]
    # A message that already moved this step blocks its flush.
    assert probe(edges, lead, 2, location.__getitem__, {3}, 8, 8) == []
    location[5] = 0
    assert probe(edges, lead, 2, location.__getitem__, set(), 8, 8) \
        == [pending[3], pending[4]]


def test_completions_only_merges_only_non_parking_members():
    targets = [1, 2, 1]
    pending, edges = edge_queue([
        Flush(0, 1, (0,)), Flush(0, 1, (1,)), Flush(0, 1, (2,)),
    ], targets)
    where = [0, 0, 0].__getitem__
    assert probe(edges, pending[0], 1, where, set(), 8, 8, True) \
        == [pending[2]]
    assert probe(edges, pending[0], 1, where, set(), 8, 8) \
        == [pending[1], pending[2]]


def test_duplicate_messages_never_merge_twice():
    targets = [1, 1]
    pending, edges = edge_queue([
        Flush(0, 1, (0, 1)), Flush(0, 1, (1,)),
    ], targets)
    assert probe(edges, pending[0], 1, [0, 0].__getitem__, set(), 8, 8) \
        == []


def test_coalesce_returns_one_io_and_consumes_its_members():
    targets = [1, 1, 1]
    pending, edges = edge_queue([
        Flush(0, 1, (0,)), Flush(0, 1, (1,)), Flush(0, 1, (2,)),
    ], targets)
    where = [0, 0, 0].__getitem__
    flush, members = edges.coalesce(pending[0], 1, where, set(), 8, 8)
    assert flush == Flush(0, 1, (0, 1, 2))
    assert members == pending[1:] and all(pf.done for pf in members)
    assert not pending[0].done  # the lead is the caller's to settle
    # A failed IO re-opens every member with its own backoff.
    back_off(pending[1], 1)
    assert not pending[1].done and pending[1].eligible_at == 3
    # Without room, nothing merges and the lead's flush is the IO.
    assert edges.coalesce(pending[0], 1, where, set(), 0, 0) \
        == (pending[0].flush, [])


# ----------------------------------------------------------------------
# Next hops: members bound for the lead's next edge go first
# ----------------------------------------------------------------------

def test_next_hop_names_the_one_child_every_parked_message_takes():
    topo = balanced_tree(2, 3)  # 1 -> {3, 4}; 3 -> {7, 8}; 4 -> {9, 10}
    targets = [7, 8, 9, 1, 3, 7]
    hop = lambda dest, msgs: parking_and_hop(  # noqa: E731
        dest, msgs, targets.__getitem__, topo)
    assert hop(1, (0, 1)) == (2, 3)  # leaves 7 and 8 both lie below 3
    assert hop(1, (0, 2)) == (2, -1)  # split across children 3 and 4
    assert hop(1, (3, 0)) == (1, 3)  # a completion at dest does not count
    assert hop(1, (3,)) == (0, -1)  # nothing parks
    assert hop(3, (4,)) == (0, -1)
    assert hop(3, (0, 5)) == (2, 7)
    assert hop(7, (0, 5)) == (0, -1)  # a leaf dest parks nothing
    pending = as_pending([Flush(0, 1, (0, 1)), Flush(0, 1, (0, 2)),
                          Flush(3, 7, (0,))], targets.__getitem__, topo)
    assert [(pf.parking, pf.next_hop) for pf in pending] \
        == [(2, 3), (2, -1), (0, -1)]


def test_same_next_hop_member_wins_over_an_earlier_one():
    topo = balanced_tree(2, 2)  # root 0; 1 -> {3, 4}; 2 -> {5, 6}
    pending, edges = edge_queue([
        Flush(0, 1, (0,)), Flush(0, 1, (1,)), Flush(0, 1, (2,)),
    ], [3, 4, 3], topo)
    assert [pf.next_hop for pf in pending] == [3, 4, 3]
    where = [0, 0, 0].__getitem__
    # Room for one: the later member bound for 3 beats first fit.
    assert probe(edges, pending[0], 1, where, set(), 1, 1) == [pending[2]]
    # Room for both: same-hop members first, then first fit.
    assert probe(edges, pending[0], 1, where, set(), 8, 8) \
        == [pending[2], pending[1]]


def test_without_a_same_hop_member_first_fit_applies():
    topo = balanced_tree(2, 2)
    where = [0] * 4
    # The lead goes to 3, every candidate to 4: plain priority order.
    pending, edges = edge_queue([
        Flush(0, 1, (0,)), Flush(0, 1, (1,)), Flush(0, 1, (2,)),
    ], [3, 4, 4], topo)
    assert probe(edges, pending[0], 1, where.__getitem__, set(), 1, 1) \
        == [pending[1]]
    # A lead whose messages split has no next hop: first fit, even past
    # a later member that shares a child with part of the lead.
    pending, edges = edge_queue([
        Flush(0, 1, (0, 1)), Flush(0, 1, (2,)), Flush(0, 1, (3,)),
    ], [3, 4, 4, 3], topo)
    assert pending[0].next_hop == -1
    assert probe(edges, pending[0], 1, where.__getitem__, set(), 1, 1) \
        == [pending[1]]
    # Same-hop members still pass every screen: one that does not fit
    # the space bound is passed over for a first-fit completion.
    pending, edges = edge_queue([
        Flush(0, 1, (0,)), Flush(0, 1, (1, 2)), Flush(0, 1, (3,)),
    ], [3, 3, 3, 1], topo)
    assert probe(edges, pending[0], 1, where.__getitem__, set(), 8, 1) \
        == [pending[2]]


def test_partial_remainder_recomputes_its_next_hop():
    topo = balanced_tree(2, 2)
    targets = {0: 3, 1: 4, 2: 3}
    pending = as_pending([Flush(0, 1, (0, 1, 2))], targets.get, topo)
    assert (pending[0].parking, pending[0].next_hop) == (3, -1)
    # Message 1 (bound for 4) lands; the rest all continue to 3.
    assert settle_partial(pending, (1,), targets.get, topo, 1) \
        == []
    pf = pending[0]
    assert pf.flush == Flush(0, 1, (0, 2))
    assert (pf.parking, pf.next_hop, pf.attempts) == (2, 3, 1)
    # The engine settles a partial outcome the same way.
    engine = ShardEngine(0, topo, 1, 8,
                         injector=ScriptedInjector(outcomes={1: {1}}))
    for m, target in targets.items():
        engine.admit(m, target, 1)
    engine.set_plan([Flush(0, 1, (0, 1, 2))])
    assert engine.pending[0].next_hop == -1
    engine.step(1)
    assert engine.pending[0].flush == Flush(0, 1, (0, 2))
    assert engine.pending[0].next_hop == 3


def test_batch_shape_flush_count_does_not_regress():
    """The fault-free ``WormsPolicy`` run on the batch-journaled instance
    shape of perfbench (seed 1).  First-fit merging alone realized 810
    flushes in 203 steps here; next-hop-aware merging realizes 693."""
    seed = int(np.random.SeedSequence((1, 1)).generate_state(1)[0])
    inst = uniform_instance(beps_shape_tree(64, 0.5, 256), 4000, P=4, B=64,
                            seed=seed)
    sched = WormsPolicy().schedule(inst)
    check_realized(inst, sched)
    assert sched.n_flushes <= 693


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------

def test_gated_executor_realizes_one_io_per_edge():
    topo = balanced_tree(2, 1)  # root 0, leaves 1 and 2
    inst = WORMSInstance(
        topo, [Message(i, 1 + i % 2) for i in range(6)], P=1, B=4
    )
    flushes = [Flush(0, 1 + i % 2, (i,)) for i in range(6)]
    sched = GatedExecutor(inst).run(flushes)
    assert sched.steps == [
        [Flush(0, 1, (0, 2, 4))],
        [Flush(0, 2, (1, 3, 5))],
    ]
    validate_valid(inst, sched)


def test_merged_flush_holds_at_most_B_messages():
    topo = balanced_tree(2, 1)
    inst = WORMSInstance(topo, [Message(i, 1) for i in range(7)], P=2, B=3)
    sched = GatedExecutor(inst).run([Flush(0, 1, (i,)) for i in range(7)])
    assert [[f.size for f in step] for step in sched.steps] == [[3, 3], [1]]


def test_failed_merge_backs_off_each_member_on_its_own():
    topo = balanced_tree(2, 1)
    injector = ScriptedInjector(
        outcomes={1: "failed", 2: "failed", 3: "failed", 6: "failed"},
        capacity={5: 0},
    )
    engine = ShardEngine(0, topo, 1, 4, injector=injector)
    for m in (0, 1):
        engine.admit(m, 1, 1)
    engine.set_plan([Flush(0, 1, (0,)), Flush(0, 1, (1,))])
    a, b = engine.pending
    engine.step(1)  # merged {a, b}: one IO, fails
    assert injector.attempts == [(1, (0, 1))]
    assert (a.attempts, a.eligible_at) == (1, 3)
    assert (b.attempts, b.eligible_at) == (1, 3)
    engine.admit(2, 1, 2)
    engine.append_plan([Flush(0, 1, (2,))])
    c = engine.pending[2]
    engine.step(2)  # a, b backing off: c alone, fails
    assert (c.attempts, c.eligible_at) == (1, 4)
    engine.step(3)  # a, b eligible again; c is not: merge without it
    assert injector.attempts[-1] == (3, (0, 1))
    assert (a.attempts, a.eligible_at) == (2, 6)
    assert (b.attempts, b.eligible_at) == (2, 6)
    engine.step(4)  # c alone, succeeds
    assert c.done and engine.schedule.steps[3] == [Flush(0, 1, (2,))]
    engine.admit(3, 1, 5)
    engine.append_plan([Flush(0, 1, (3,))])
    d = engine.pending[-1]
    engine.step(5)  # no capacity
    engine.step(6)  # a, b (2 attempts) and fresh d merge, fail together
    assert injector.attempts[-1] == (6, (0, 1, 3))
    assert (a.attempts, a.eligible_at) == (3, 11)
    assert (b.attempts, b.eligible_at) == (3, 11)
    assert (d.attempts, d.eligible_at) == (1, 8)
    assert engine.stats.failed_attempts == 4  # IOs, not flushes
    assert engine.stats.coalesced == 4


def test_partial_merge_keeps_each_remainder_at_its_slot():
    topo = balanced_tree(2, 1)
    flushes = [Flush(0, 1, (0,)), Flush(0, 1, (1, 2)), Flush(0, 1, (3,))]
    injector = ScriptedInjector(outcomes={1: {0, 1}})
    engine = ShardEngine(0, topo, 1, 8, injector=injector)
    for m in range(4):
        engine.admit(m, 1, 1)
    engine.set_plan(flushes)
    a, b, c = engine.pending
    assert engine.step(1) == [(0, 1), (1, 1)]
    assert a.done and a.attempts == 0
    assert b.flush == Flush(0, 1, (2,)) and not b.done
    assert (b.attempts, b.eligible_at) == (1, 3)
    assert c.flush == Flush(0, 1, (3,)) and not c.done
    assert (c.attempts, c.eligible_at) == (1, 3)
    engine.step(2)
    assert engine.step(3) == [(2, 3), (3, 3)]
    assert engine.schedule.steps == [
        [Flush(0, 1, (0, 1))], [], [Flush(0, 1, (2, 3))],
    ]
    assert engine.stats.partial_deliveries == 1
    # The batch executor makes the same decisions.
    inst = WORMSInstance(topo, [Message(i, 1) for i in range(4)], P=1, B=8)
    ex = ResilientExecutor(inst, ScriptedInjector(outcomes={1: {0, 1}}))
    assert ex.run(list(flushes)).steps == engine.schedule.steps
    assert ex.stats.partial_deliveries == 1
    assert ex.stats.coalesced == engine.stats.coalesced == 3


def test_failed_merge_charges_the_retry_budget():
    topo = balanced_tree(2, 1)
    inst = WORMSInstance(topo, [Message(i, 1) for i in range(3)], P=1, B=4)
    ex = ResilientExecutor(
        inst, ScriptedInjector(outcomes={1: "failed"}), retry_budget=1,
        max_replans=1,
    )
    sched = ex.run([Flush(0, 1, (i,)) for i in range(3)])
    assert ex.stats.failed_attempts == 1
    assert ex.stats.replans == 1
    assert validate_valid(inst, sched).completion_times.tolist() == [2] * 3


def test_completion_pass_merges_only_completions():
    topo = balanced_tree(2, 2)  # root 0; internal 1, 2; leaves 3..6
    leaf = topo.leaves_under(1)[0]
    plan = [
        Flush(0, 1, (0,)),  # completes at internal node 1
        Flush(0, 1, (1,)),  # parks at 1
        Flush(0, 1, (2,)),  # completes at 1
        Flush(1, leaf, (1,)),
    ]
    targets = {0: 1, 1: leaf, 2: 1}

    def first_step(fault_aware):
        engine = ShardEngine(
            0, topo, 2, 4, fault_aware=fault_aware,
            injector=ScriptedInjector(capacity={1: 1}),
        )
        for m, target in targets.items():
            engine.admit(m, target, 1)
        engine.set_plan(plan)
        engine.step(1)
        return engine

    triaged = first_step(True)
    assert triaged.stats.degraded_triage_steps == 1
    assert triaged.schedule.steps == [[Flush(0, 1, (0, 2))]]
    assert triaged.occupancy[1] == 0
    blind = first_step(False)
    assert blind.schedule.steps == [[Flush(0, 1, (0, 1, 2))]]
    assert blind.occupancy[1] == 1


def test_pace_budget_bounds_the_merged_flush():
    topo = balanced_tree(2, 1)
    engine = ShardEngine(0, topo, 4, 8, pace=3)
    for m in range(5):
        engine.admit(m, 1, 1)
    engine.set_plan([
        Flush(0, 1, (0, 1)), Flush(0, 1, (2, 3)), Flush(0, 1, (4,)),
    ])
    engine.step(1)
    engine.step(2)
    assert engine.schedule.steps == [
        [Flush(0, 1, (0, 1, 4))], [Flush(0, 1, (2, 3))],
    ]
    assert engine.stats.paced_holds == 1


def test_paced_split_suffix_keeps_its_obligations_next_hop():
    """The suffix keeps a next hop that may be stale: it orders merges
    and admits nothing, so the budget and the screens still hold."""
    topo = balanced_tree(2, 2)  # root 0; 1 -> {3, 4}
    engine = ShardEngine(0, topo, 1, 8, pace=2)
    for m, target in enumerate([3, 4, 4, 4]):
        engine.admit(m, target, 1)
    engine.set_plan([Flush(0, 1, (0, 1, 2)), Flush(0, 1, (3,))])
    pf = engine.pending[0]
    assert pf.next_hop == -1  # split across 3 and 4
    engine.step(1)
    # The budget moved (0, 1); the suffix (2,) continues to 4 alone but
    # keeps the obligation's -1.
    assert engine.schedule.steps == [[Flush(0, 1, (0, 1))]]
    assert (pf.flush, pf.parking, pf.next_hop) == (Flush(0, 1, (2,)), 1, -1)
    assert engine.stats.paced_splits == 1
    # As a lead without a next hop it merges first-fit, within budget.
    engine.step(2)
    assert engine.schedule.steps[1] == [Flush(0, 1, (2, 3))]
    assert pf.done and engine.pending[1].done


@pytest.mark.parametrize("pace", [1, 2, 5])
def test_paced_serving_never_exceeds_the_step_budget(pace):
    report = ServiceLoop(ServeConfig(
        messages=300, rate=6.0, shards=2, seed=pace, pace=pace,
    )).run()
    for schedule in report.shard_schedules:
        for step in schedule.steps:
            assert sum(f.size for f in step) <= pace
    # A one-message budget leaves no room to merge.
    coalesced = sum(s.coalesced for s in report.shard_stats)
    assert (coalesced > 0) == (pace > 1)


# ----------------------------------------------------------------------
# Properties over random trees and instances
# ----------------------------------------------------------------------

def random_instance(seed):
    gen = np.random.default_rng(seed)
    B = int(gen.integers(4, 24))
    if gen.random() < 0.5:
        topo = balanced_tree(int(gen.integers(2, 5)), int(gen.integers(1, 4)))
    else:
        topo = beps_shape_tree(B, 0.5, int(gen.integers(4, 40)))
    return make_uniform(topo, n_messages=int(gen.integers(1, 250)),
                        P=int(gen.integers(1, 5)), B=B, seed=seed)


def check_realized(inst, sched):
    for step in sched.steps:
        assert len(step) <= inst.P
        for flush in step:
            assert flush.size <= inst.B
    return validate_valid(inst, sched)


@pytest.mark.parametrize("seed", range(12))
def test_paper_plans_never_deadlock_the_gates(seed):
    inst = random_instance(seed)
    raw = mphtf_order(inst)
    check_realized(inst, WormsPolicy().schedule(inst))
    solved = [f for _t, f in solve_worms(inst).schedule.iter_timed()]
    for ordered in (raw, solved):
        gated = GatedExecutor(inst).run(list(ordered))
        check_realized(inst, gated)
        assert ResilientExecutor(inst).run(list(ordered)).steps \
            == gated.steps
        engine = run_engine(inst.topology, inst.P, inst.B, ordered,
                            inst.targets.tolist())
        assert engine.schedule.steps == gated.steps


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_worms_plan_identical_on_every_gate(seed):
    """The merged ``WormsPolicy`` schedule, fed back as a priority list,
    realizes the same steps on both batch executors and on a stepped
    single-shard serving engine."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=200, P=3, B=16,
                        seed=seed)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    gated = GatedExecutor(inst).run(list(ordered))
    check_realized(inst, gated)
    assert ResilientExecutor(inst).run(list(ordered)).steps == gated.steps
    engine = run_engine(inst.topology, inst.P, inst.B, ordered,
                        inst.targets.tolist())
    assert engine.schedule.steps == gated.steps


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_raw_order_coalesces_identically_on_every_gate(seed):
    """``WormsPolicy`` returns an already-merged schedule, so feeding it
    back leaves nothing to merge; the raw Lemma 8 order does not.  Both
    batch executors and a single-shard serving engine stepped without
    the drain loop's rollback must merge it identically."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=200, P=3, B=16,
                        seed=seed)
    ordered = mphtf_order(inst)
    resilient = ResilientExecutor(inst)
    steps = resilient.run(list(ordered)).steps
    assert GatedExecutor(inst).run(list(ordered)).steps == steps
    engine = run_engine(inst.topology, inst.P, inst.B, ordered,
                        inst.targets.tolist())
    assert engine.schedule.steps == steps
    assert resilient.stats.coalesced > 0
    assert engine.stats.coalesced == resilient.stats.coalesced
    assert sum(len(step) for step in steps) < len(ordered)


@pytest.mark.parametrize("topo, n, P, B, seed", [
    # Enough flushes that the lazy pending-list compaction triggers.
    (balanced_tree(2, 4), 400, 2, 8, 13),
    # Deep path tree: front-blocked rejects dominate the scan.
    (path_tree(5), 80, 1, 8, 9),
], ids=["balanced", "deep-path"])
def test_gates_identical_through_pending_compaction(topo, n, P, B, seed):
    inst = make_uniform(topo, n_messages=n, P=P, B=B, seed=seed)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    gated = GatedExecutor(inst).run(list(ordered))
    check_realized(inst, gated)
    assert ResilientExecutor(inst).run(list(ordered)).steps == gated.steps
    engine = run_engine(topo, P, B, ordered, inst.targets.tolist())
    assert engine.schedule.steps == gated.steps
    assert engine.pending_flushes == 0
    assert len(engine.pending) < len(ordered)  # compacted on the way


@pytest.mark.parametrize("seed", range(6))
def test_faulty_merged_runs_stay_valid(seed):
    inst = random_instance(100 + seed)
    ex = ResilientExecutor(
        inst, FaultInjector(FaultPlan.uniform(0.2), seed=seed),
        retry_budget=4, max_replans=4,
    )
    check_realized(inst, ex.run(mphtf_order(inst)))


def test_deep_chain_merges_at_every_level():
    topo = path_tree(4)
    inst = WORMSInstance(topo, [Message(i, 4) for i in range(6)], P=2, B=6)
    ex = ResilientExecutor(inst)
    sched = ex.run(mphtf_order(inst))
    check_realized(inst, sched)
    assert ex.stats.coalesced > 0


# ----------------------------------------------------------------------
# Merge counters
# ----------------------------------------------------------------------

def test_executor_counter_reconciles_with_stats():
    inst = random_instance(3)
    ordered = mphtf_order(inst)
    with observed() as ctx:
        ex = ResilientExecutor(inst)
        ex.run(list(ordered))
        GatedExecutor(inst).run(list(ordered))
    counters = ctx.metrics.snapshot()["counters"]
    assert ex.stats.coalesced > 0
    # Both executors report; the gated one merges identically.
    assert counters["executor_coalesced_flushes_total"] \
        == 2 * ex.stats.coalesced


def test_serve_counter_reconciles_per_shard():
    with observed() as ctx:
        report = ServiceLoop(ServeConfig(
            messages=300, rate=8.0, shards=2, seed=4, fault_rate=0.1,
        )).run()
    counters = ctx.metrics.snapshot()["counters"]
    total = sum(s.coalesced for s in report.shard_stats)
    assert total > 0
    assert counters["serve_coalesced_flushes_total"] == total
    per_shard = sum(
        v for k, v in counters.items()
        if k.startswith("serve_coalesced_flushes_total{")
    )
    assert per_shard == total


# ----------------------------------------------------------------------
# Faulty replays of a policy's planned order
# ----------------------------------------------------------------------

def test_worms_priority_order_is_the_unmerged_plan():
    inst = random_instance(7)
    policy = WormsPolicy()
    order = policy.priority_order(inst)
    assert order == mphtf_order(inst)
    assert GatedExecutor(inst).run(list(order)).steps \
        == policy.schedule(inst).steps


@pytest.mark.parametrize("seed", range(32))
def test_planned_order_replays_under_faults_without_replans(seed):
    # The planned order is laminar, so faults only delay it: with a
    # retry budget that never runs out, no re-plan is ever needed.
    # (Replaying the merged realized schedule instead deadlocks on
    # seeds 18 and 31.)
    inst = random_instance(200 + seed)
    ex = ResilientExecutor(
        inst, FaultInjector(FaultPlan.uniform(0.2), seed=seed),
        retry_budget=10**6, max_replans=0,
    )
    check_realized(inst, ex.run(WormsPolicy().priority_order(inst)))
    assert ex.stats.replans == 0


@pytest.mark.parametrize("seed", [18, 31])
@pytest.mark.parametrize("fault_aware", [False, True])
def test_resilience_sweep_replays_worms_without_replans(seed, fault_aware):
    cells = resilience_sweep(
        random_instance(200 + seed), [WormsPolicy()], fault_rates=(0.2,),
        seed=seed, fault_aware=fault_aware, retry_budget=10**6,
        max_replans=0,
    )
    for cell in cells:
        assert not cell.stalled and cell.stats.replans == 0, cell
