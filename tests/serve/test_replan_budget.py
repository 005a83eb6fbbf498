"""The forced re-plan budget is per deadlock, not per run.

A shard gets ``MAX_FORCED_REPLANS`` forced full re-plans to escape a
deadlock; once it completes a message the deadlock is over and the
budget refills.  A long run can meet several independent deadlocks (a
paced plan's chunks can strand a buffer) and must survive each one,
while a deadlock that no re-plan resolves still exhausts the budget
(``tests/serve/test_forced_replan.py``).  Every driver applies the same
rule, so their journals stay byte-identical.
"""

from __future__ import annotations

from repro.dam.schedule import Flush
from repro.serve import ProcPoolLoop, ServeConfig, ServiceLoop, SupervisedLoop
from repro.serve.loop import MAX_FORCED_REPLANS
from repro.serve.planner import EpochPlanner


class DeadlockEveryEpoch(EpochPlanner):
    """Installs an unready plan at every epoch plan; forced re-plans
    are clean, so each deadlock costs exactly one forced re-plan."""

    def _plan(self, engine, new_msgs, *, force_full=False):
        if force_full or not new_msgs:
            return super()._plan(engine, new_msgs, force_full=force_full)
        topo = engine.topology
        mid = next(v for v in range(topo.n_nodes)
                   if v != topo.root and not topo.is_leaf(v))
        engine.set_plan([
            Flush(mid, engine.targets[m], (m,)) for m in sorted(engine.location)
        ])
        return "full"


def test_independent_deadlocks_each_get_a_fresh_budget():
    waves = MAX_FORCED_REPLANS + 2
    trace = tuple(
        (1 + 40 * w, 4 * w + k) for w in range(waves) for k in range(4)
    )
    config = ServeConfig(arrivals="trace", trace=trace, messages=len(trace),
                         shards=1, P=2, B=8, epoch=4, seed=7)
    loop = ServiceLoop(config)
    loop.planner = DeadlockEveryEpoch(config.epoch)
    report = loop.run()
    assert loop.planner.stats.forced_replans == waves > MAX_FORCED_REPLANS
    assert len(report.completions) == config.messages
    assert report.snapshot["in_flight"] == 0


def test_paced_run_survives_repeated_deadlocks_on_every_driver(tmp_path):
    """Tight pacing strands buffers more than twice on one shard here;
    every driver re-plans its way out, identically."""
    config = ServeConfig(messages=600, rate=12.0, shards=2, seed=7, B=8,
                         pace=4)
    paths = [tmp_path / f"j{i}" for i in range(3)]
    loop = ServiceLoop(config, journal=paths[0])
    forced = []
    plan = loop.planner.plan

    def counting_plan(engine, new_msgs, *, force_full=False):
        if force_full:
            forced.append(engine.shard_id)
        return plan(engine, new_msgs, force_full=force_full)

    loop.planner.plan = counting_plan
    plain = loop.run()
    assert max(forced.count(s) for s in set(forced)) > MAX_FORCED_REPLANS
    snap = plain.snapshot
    assert snap["in_flight"] == 0
    assert snap["arrived"] == snap["completed"] + snap["shed"] == 600
    threads = SupervisedLoop(config, journal=paths[1]).run()
    procs = ProcPoolLoop(config, processes=2, journal=paths[2]).run()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert plain.completions == threads.completions == procs.completions
