#!/usr/bin/env python
"""Fault injection: open-loop breakage vs closed-loop self-healing.

Three acts:

1. Replay a WORMS schedule *open-loop* under seeded faults — failed and
   partial flushes strand messages mid-tree and the fault-free validator
   reports the cascade.
2. Execute the same planned flush order *closed-loop* through the
   resilient executor — retries with backoff, re-admission, and (when a
   retry budget runs dry) a WORMS re-plan over the survivors; every
   message completes and the realized schedule validates.
3. Kill the clean run at an arbitrary step and resume from a checkpoint;
   the recovered completion times match the uninterrupted run exactly.

Run:  python examples/fault_injection.py
"""

from __future__ import annotations

from repro import FaultInjector, FaultPlan, WormsPolicy, beps_shape_tree
from repro.dam import checkpoint_at, resume_simulation, validate_recovery
from repro.dam.simulator import simulate
from repro.dam.validator import validate_valid
from repro.policies import ResilientExecutor
from repro.workloads import uniform_instance


def main() -> None:
    B, P = 32, 4
    topo = beps_shape_tree(B=B, eps=0.5, n_leaves=64)
    instance = uniform_instance(topo, n_messages=600, P=P, B=B, seed=7)
    print(f"instance: {instance!r}")

    policy = WormsPolicy()
    planned = policy.schedule(instance)
    ordered = policy.priority_order(instance)
    clean = simulate(instance, planned)
    print(f"fault-free plan: {planned.n_steps} steps, "
          f"mean completion {clean.completion_times.mean():.1f}\n")

    # -- act 1: open loop.  The schedule is fixed; faults knock flushes
    # out of it and everything downstream of a lost message goes wrong.
    plan = FaultPlan.uniform(0.15)
    injector = FaultInjector(plan, seed=3)
    broken = simulate(instance, planned, faults=injector)
    lost = int((broken.completion_times == 0).sum())
    kinds = sorted({v.kind for v in broken.violations})
    print(f"open-loop replay under {plan!r}:")
    print(f"  {len(broken.fault_events)} fault events, "
          f"{lost} messages stranded mid-tree")
    print(f"  validator: {len(broken.violations)} violations, "
          f"kinds {kinds}\n")

    # -- act 2: closed loop.  Same planned priority order, same fault
    # pattern (same seed), but the executor reacts: retry, back off,
    # re-admit, re-plan.
    executor = ResilientExecutor(
        instance, FaultInjector(plan, seed=3), retry_budget=4, max_replans=4
    )
    realized = executor.run(list(ordered))
    sim = validate_valid(instance, realized)  # raises if the run cheated
    s = executor.stats
    print("closed-loop resilient execution of the same order:")
    print(f"  completed all {instance.n_messages} messages in "
          f"{realized.n_steps} steps (clean plan took {planned.n_steps})")
    print(f"  mean completion {sim.completion_times.mean():.1f} "
          f"({sim.completion_times.mean() / clean.completion_times.mean():.2f}x"
          " the fault-free mean)")
    print(f"  recovery: {s.failed_attempts} failed attempts, "
          f"{s.partial_deliveries} partial deliveries, "
          f"{s.stalled_skips} stall skips, {s.replans} replans\n")

    # -- act 3: checkpoint / resume.  Kill the clean run mid-flight and
    # restart from the checkpoint; completion times are identical.
    mid = planned.n_steps // 2
    ckpt = checkpoint_at(instance, planned, mid)
    resumed = resume_simulation(instance, planned, ckpt)
    validate_recovery(instance, planned, ckpt)
    same = bool((resumed.completion_times == clean.completion_times).all())
    print(f"checkpoint at step {mid} -> resume: completion times identical "
          f"to the uninterrupted run: {same}")
    print(f"checkpoint record round-trips through JSON: "
          f"{ckpt.to_json() != '' and type(ckpt).from_json(ckpt.to_json()) == ckpt}")


if __name__ == "__main__":
    main()
