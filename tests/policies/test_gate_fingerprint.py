"""Golden fingerprints: seeded gate runs stay byte-identical across commits.

Every seeded run of the admission gate is deterministic, and the other
parity tests compare two paths of the *same* checkout.  These cases pin
the output itself: the sha256 of the realized steps, the run's counters
and (when journaled) the journal bytes, committed as constants.  A change
that moves any decision of the gate — readiness, admission, coalescing,
retry/backoff, stall handling, triage, re-planning, pacing or journaling
order — fails here even if every path moved the same way.

If a change is *meant* to alter schedules, recompute the constants and
say so in the change log.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.dam import validate_valid
from repro.dam.journal import scan_journal
from repro.faults import FaultInjector, FaultPlan
from repro.faults.bursts import BurstInjector, BurstPlan
from repro.policies import GatedExecutor, ResilientExecutor
from repro.scheduling.mphtf import mphtf_schedule
from repro.serve import ServeConfig, ServiceLoop
from repro.tree import balanced_tree, beps_shape_tree
from tests.conftest import make_uniform

#: ResilienceStats fields in the fingerprint (fault events by repr).
RESILIENCE_FIELDS = (
    "failed_attempts", "partial_deliveries", "stalled_skips", "replans",
    "wait_steps", "fault_aware_skips", "degraded_triage_steps", "coalesced",
    "fault_events",
)

#: ShardStats fields in the serve fingerprint.
SHARD_FIELDS = (
    "admitted", "completed", "flushes", "failed_attempts",
    "partial_deliveries", "stalled_skips", "fault_aware_skips",
    "degraded_triage_steps", "idle_steps", "busy_steps", "paced_holds",
    "paced_splits", "coalesced",
)

GOLDEN = {
    "gated_raw_order":
        "6c68668721c9bd81ccad3ebb7ccca11386caed7625c9290b4556555c795652b1",
    "gated_journaled":
        "081f5a79664141bc8e29563ccf3263f63f419c340ddb1c774aa0e7d81c57879f",
    "resilient_uniform":
        "6fc5464c56fa814756ce426951c4a5d57abfe1a7baf94e5e0ef92ee032ada5e7",
    "resilient_uniform_fault_aware":
        "042d96c992ecfcd0b59bec248c363b91fd8a173c1b8286d40f90d1931640b3bb",
    "resilient_bursts":
        "5eca9778691568192101fdd89ab3d2a00e44f4ed1b10b6f0e52ef41d6fe6acfc",
    "resilient_forced_replan":
        "8ba6a771f3e0fa73eb720f73c52a69822397ab059e5fd0e324f6350a9928ac74",
    "resilient_journaled":
        "24ed94e7d02ebd5258fbc53e340f58e6be656b42bf846eb974b03a6639a090d0",
    "serve_faulty_paced_triaged":
        "9fdcef5bd677fc1ae4253cc08382c7f1b8e733382830b9dd752f574cd6b0a61a",
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def counters(stats, names) -> "tuple":
    return tuple((name, repr(getattr(stats, name))) for name in names)


def instance():
    return make_uniform(balanced_tree(3, 3), n_messages=240, P=3, B=16,
                        seed=4)


def raw_order(inst):
    """The Lemma 8 order straight off MPHTF: unmerged, so the gate merges."""
    reduced = reduce_to_scheduling(inst)
    plan = task_schedule_to_flush_schedule(
        reduced, mphtf_schedule(reduced.scheduling)
    )
    return [f for _t, f in plan.iter_timed()]


def uniform(seed=7, rate=0.2):
    return FaultInjector(FaultPlan.uniform(rate), seed=seed)


def fingerprint_gated_raw_order(tmp_path):
    inst = instance()
    sched = GatedExecutor(inst).run(raw_order(inst))
    validate_valid(inst, sched)
    return digest(sched.steps)


def fingerprint_gated_journaled(tmp_path):
    inst = instance()
    path = tmp_path / "gated.journal"
    sched = GatedExecutor(inst, journal=path, checkpoint_every=4).run(
        raw_order(inst)
    )
    return digest(sched.steps, path.read_bytes())


def _resilient(inst, injector, ordered, retry_budget=4, **kw):
    ex = ResilientExecutor(inst, injector, retry_budget=retry_budget,
                           max_replans=4, **kw)
    sched = ex.run(list(ordered))
    validate_valid(inst, sched)
    return ex, sched


def fingerprint_resilient_uniform(tmp_path, fault_aware=False):
    inst = instance()
    ex, sched = _resilient(inst, uniform(), raw_order(inst),
                           fault_aware=fault_aware)
    return digest(sched.steps, counters(ex.stats, RESILIENCE_FIELDS))


def fingerprint_resilient_uniform_fault_aware(tmp_path):
    return fingerprint_resilient_uniform(tmp_path, fault_aware=True)


def fingerprint_resilient_bursts(tmp_path):
    """A tight retry budget: a burst exhausts it and forces a re-plan."""
    inst = instance()
    injector = BurstInjector(FaultPlan.uniform(0.05),
                             BurstPlan.from_rate(0.3), inst.topology, seed=16)
    ex, sched = _resilient(inst, injector, raw_order(inst), retry_budget=2,
                           fault_aware=True)
    assert ex.stats.replans >= 1
    return digest(sched.steps, counters(ex.stats, RESILIENCE_FIELDS))


def fingerprint_resilient_forced_replan(tmp_path):
    """Dropping one root flush strands its messages: the list is not
    laminar, the gate deadlocks and the executor re-plans."""
    inst = instance()
    ordered = raw_order(inst)
    root = inst.topology.root
    first_root = next(i for i, f in enumerate(ordered) if f.src == root)
    broken = ordered[:first_root] + ordered[first_root + 1:]
    ex, sched = _resilient(inst, uniform(seed=3, rate=0.1), broken)
    assert ex.stats.replans >= 1
    return digest(sched.steps, counters(ex.stats, RESILIENCE_FIELDS))


def fingerprint_resilient_journaled(tmp_path):
    inst = make_uniform(beps_shape_tree(16, 0.5, 32), n_messages=300, P=4,
                        B=16, seed=2)
    path = tmp_path / "resilient.journal"
    ex = ResilientExecutor(inst, uniform(seed=5, rate=0.15), journal=path,
                           checkpoint_every=8, fault_aware=True)
    sched = ex.run(raw_order(inst))
    return digest(sched.steps, counters(ex.stats, RESILIENCE_FIELDS),
                  path.read_bytes())


def fingerprint_serve_faulty_paced_triaged(tmp_path):
    path = tmp_path / "serve.journal"
    config = ServeConfig(
        arrivals="poisson", rate=10.0, messages=400, shards=2, seed=9,
        P=2, B=8, epoch=4, fault_rate=0.1, fault_aware=True, pace=6,
    )
    report = ServiceLoop(config, journal=path).run()
    # Records after ``meta``: the config payload may gain or lose keys.
    records = [r for r in scan_journal(path).records if r["type"] != "meta"]
    return digest(
        report.n_steps,
        sorted(report.completions.items()),
        [s.steps for s in report.shard_schedules],
        [counters(s, SHARD_FIELDS) for s in report.shard_stats],
        repr(records),
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_run_matches_golden_fingerprint(case, tmp_path):
    got = globals()[f"fingerprint_{case}"](tmp_path)
    assert got == GOLDEN[case], f"{case}: {got}"
