"""Tests for the deterministic serving loop."""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig, ServiceLoop
from repro.util.errors import InvalidInstanceError


def completions_of(config):
    return ServiceLoop(config).run().completions


def test_run_completes_everything_offered():
    cfg = ServeConfig(arrivals="poisson", rate=6.0, messages=300,
                      shards=4, seed=42)
    report = ServiceLoop(cfg).run()
    snap = report.snapshot
    assert snap["completed"] == 300
    assert snap["shed"] == 0
    assert snap["in_flight"] == 0
    assert snap["arrived"] == 300
    assert report.n_steps >= 1
    assert snap["sojourn"]["p50"] >= 1


def test_runs_are_deterministic():
    cfg = ServeConfig(arrivals="poisson", rate=6.0, messages=250,
                      shards=3, seed=11)
    a = ServiceLoop(cfg).run()
    b = ServiceLoop(cfg).run()
    assert a.completions == b.completions
    assert [s.n_steps for s in a.shard_schedules] == \
        [s.n_steps for s in b.shard_schedules]
    assert a.snapshot == b.snapshot


def test_seed_changes_the_run():
    base = dict(arrivals="poisson", rate=6.0, messages=250, shards=3)
    a = completions_of(ServeConfig(seed=1, **base))
    b = completions_of(ServeConfig(seed=2, **base))
    assert a != b


def test_overload_sheds_and_conserves_messages():
    cfg = ServeConfig(arrivals="poisson", rate=200.0, messages=1500,
                      shards=2, seed=3, P=2, B=8, max_queue=64,
                      max_root_backlog=32)
    snap = ServiceLoop(cfg).run().snapshot
    assert snap["shed"] > 0
    assert snap["completed"] + snap["shed"] == snap["arrived"] == 1500
    assert snap["in_flight"] == 0


def test_faulty_run_is_deterministic_and_completes():
    cfg = ServeConfig(arrivals="mmpp", rate=4.0, burst_rate=40.0,
                      messages=400, shards=4, seed=11, fault_rate=0.05,
                      fault_aware=True, fault_seed=5)
    a = ServiceLoop(cfg).run()
    b = ServiceLoop(cfg).run()
    assert a.completions == b.completions
    assert a.snapshot["completed"] == 400
    # Faults actually fired somewhere.
    assert sum(s.failed_attempts + s.partial_deliveries + s.stalled_skips
               for s in a.shard_stats) > 0


def test_closed_loop_self_paces():
    cfg = ServeConfig(arrivals="closed", n_clients=8, think_time=1,
                      messages=120, shards=2, seed=9)
    report = ServiceLoop(cfg).run()
    assert report.snapshot["completed"] == 120
    assert report.snapshot["shed"] == 0
    # At most n_clients messages can ever be in flight.
    peak = max(
        sum(tl.in_flight[t] for tl in report.metrics.timelines)
        + sum(tl.queue_depth[t] for tl in report.metrics.timelines)
        for t in range(report.n_steps)
    )
    assert peak <= 8


def test_zero_messages_is_a_zero_step_run():
    cfg = ServeConfig(arrivals="poisson", rate=5.0, messages=0,
                      shards=2, seed=0)
    report = ServiceLoop(cfg).run()
    assert report.n_steps == 0
    assert report.snapshot["arrived"] == 0


def test_single_shard_single_message():
    cfg = ServeConfig(arrivals="trace", trace=((1, 0),), messages=1,
                      shards=1, seed=0)
    report = ServiceLoop(cfg).run()
    assert report.snapshot["completed"] == 1
    [(gid, _step)] = report.completions.items()
    assert gid == 0


def test_loop_runs_exactly_once():
    cfg = ServeConfig(messages=10, seed=0)
    loop = ServiceLoop(cfg)
    loop.run()
    with pytest.raises(InvalidInstanceError):
        loop.run()


def test_config_meta_round_trip():
    cfg = ServeConfig(arrivals="trace", trace=((1, 3), (4, 9)),
                      messages=2, shards=2, seed=77, fault_rate=0.1)
    again = ServeConfig.from_meta(cfg.to_meta())
    assert again == cfg
    # Journals written while serve still had a retry_budget knob load.
    assert "retry_budget" not in cfg.to_meta()
    old = {**cfg.to_meta(), "retry_budget": 6}
    assert ServeConfig.from_meta(old) == cfg


def test_config_validation():
    with pytest.raises(InvalidInstanceError):
        ServeConfig(arrivals="nope")
    with pytest.raises(InvalidInstanceError):
        ServeConfig(arrivals="trace")  # trace mode needs a trace
    with pytest.raises(InvalidInstanceError):
        ServeConfig(fault_rate=1.5)


def test_skewed_keys_still_complete():
    cfg = ServeConfig(arrivals="poisson", rate=8.0, messages=300,
                      shards=4, seed=5, theta=1.1)
    snap = ServiceLoop(cfg).run().snapshot
    assert snap["completed"] == 300
    # Skew shows up as per-shard load imbalance.
    arrived = [row["arrived"] for row in snap["shards"]]
    assert max(arrived) > min(arrived)
