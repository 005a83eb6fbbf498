"""Fault-tolerant execution of priority-ordered flush lists.

:class:`ResilientExecutor` is the drain loop of
:class:`~repro.policies.executor.GatedExecutor` with a fault injector
and a re-plan budget: the recovery semantics a production flusher needs
when IOs can fail (see :mod:`repro.faults`).  Retries, stalls, triage
and merges are the gate's (:meth:`repro.serve.router.ShardEngine.step`);
re-planning, the ``max_steps`` backstop and the fault counters are the
loop's.

* **bounded retry with exponential backoff** — a flush that fails (or
  partially applies) stays in the priority order but becomes eligible
  again only after ``2^(attempts-1)`` steps, so a flaky edge does not
  monopolize IO slots;
* **re-admission** — the undelivered remainder of a partial flush
  replaces the original flush at the *same* priority position, so
  redelivery keeps the intended order;
* **re-planning** — when some flush exhausts its retry budget, or the
  executor deadlocks outright (non-laminar input), the surviving
  in-flight messages are re-planned from their current locations: the
  WORMS pipeline (reduction -> MPHTF -> Lemma 8 order) when everything
  still sits at the root, the density-guided online scheduler (which
  natively handles mid-tree starts) otherwise.  The new flush list
  replaces the pending tail and execution continues;
* **graceful failure** — if re-planning is also exhausted the executor
  raises :class:`~repro.util.errors.ExecutionStalledError` carrying the
  parked-message state instead of looping forever.

A step where nothing runs passes idle only while some flush that is
ready and admissible is held by a backoff or a stall window.  A held
flush that could not run anyway does not count, so faults elsewhere in
the tree never hide a deadlock from the re-planner.

**Fault-aware admission** (``fault_aware=True``, off by default) closes
the ROADMAP's "fault-blind planning" gap: instead of recovering purely
reactively, the gate consults the injector's *current* fault
windows —

* a node observed stalled is remembered until its window closes
  (:meth:`~repro.faults.injector.FaultInjector.stall_window_end`), and
  flushes touching it are parked without re-probing every step;
* while capacity is degraded (``effective_p < P``), the scarce slots are
  offered to *completion* flushes (flushes that park nothing) first, so
  tail latency degrades before throughput does.

Both behaviors only engage when a fault window is actually active, so
the fault-free path is untouched with the flag on or off.

**Coalescing** follows the rule of :mod:`repro.policies.executor`: a
selected flush absorbs the later ready, eligible flushes on its edge
(first-fit within ``B`` and the destination's space bound), and the
merged flush is one IO with one injector outcome.  On failure every
member is charged an attempt and backs off against its own retry
budget; on a partial delivery a member whose messages all arrived is
done and every other member keeps its undelivered remainder at its own
priority slot.  The completion-only triage pass merges only members that
park nothing.  Because the union of whole ready flushes arrives at its
destination together, the list stays laminar and the no-deadlock
argument of the executor carries over.

**Durability** (``journal=``): like :class:`GatedExecutor`, the realized
flushes, observed fault outcomes, and periodic checkpoints stream into a
crash-consistent journal (:mod:`repro.dam.journal`).

Zero-overhead fault path: with ``injector=None`` (or an all-zero
:class:`~repro.faults.FaultPlan`) the run *is* a
:class:`GatedExecutor` run, merges included, so the realized schedule is
byte-identical — resilience costs nothing until a fault actually fires.
"""

from __future__ import annotations

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.faults.injector import FaultInjector
from repro.obs.hooks import current_obs
from repro.policies.executor import (
    DEFAULT_CHECKPOINT_EVERY,
    GatedExecutor,
    ResilienceStats,
)
from repro.tree.messages import Message

__all__ = ["ResilienceStats", "ResilientExecutor", "worms_replan"]


def worms_replan(
    instance: WORMSInstance, remaining: "list[int]", location: "list[int]"
) -> "list[Flush]":
    """Default re-planning hook: a fresh priority order for ``remaining``.

    Builds a sub-instance whose messages start at their *current*
    locations.  If everything is still at the root the paper's pipeline
    applies verbatim (reduction -> MPHTF -> the Lemma 8 flush order);
    with mid-tree survivors the reduction does not apply (it requires
    root starts), so the density-guided online scheduler — which is
    valid by construction from arbitrary start nodes — provides the
    order instead.  Returned flushes use original message ids.
    """
    # Imported here: policies.worms_policy imports the executor module,
    # so a module-level import would be circular.
    from repro.core.reduction import reduce_to_scheduling
    from repro.core.task_to_flush import task_schedule_to_flush_schedule
    from repro.policies.online import online_density_schedule
    from repro.scheduling.mphtf import mphtf_schedule

    if not remaining:
        return []
    topo = instance.topology
    targets = instance.targets
    sub_messages = [
        Message(i, int(targets[m])) for i, m in enumerate(remaining)
    ]
    root = topo.root
    all_at_root = all(location[m] == root for m in remaining)
    sub = WORMSInstance(
        topo,
        sub_messages,
        P=instance.P,
        B=instance.B,
        start_nodes=None if all_at_root
        else [int(location[m]) for m in remaining],
        allow_internal_targets=instance.allow_internal_targets,
    )
    if all_at_root:
        reduced = reduce_to_scheduling(sub)
        sigma = mphtf_schedule(reduced.scheduling)
        planned = task_schedule_to_flush_schedule(reduced, sigma)
    else:
        planned = online_density_schedule(sub)
    return [
        Flush(f.src, f.dest, tuple(remaining[i] for i in f.messages))
        for _t, f in planned.iter_timed()
    ]


class ResilientExecutor(GatedExecutor):
    """Gated executor + retry/backoff/re-planning under fault injection.

    Parameters
    ----------
    instance:
        The WORMS instance being executed.
    injector:
        Fault source consulted every step; ``None`` (or a zero plan)
        means fault-free execution identical to :class:`GatedExecutor`.
    retry_budget:
        Attempts allowed per flush before re-planning kicks in.
    max_replans:
        Re-planning rounds allowed before giving up with
        :class:`ExecutionStalledError`.
    replanner:
        Hook ``(instance, remaining_msg_ids, location) -> list[Flush]``;
        defaults to :func:`worms_replan`.
    max_steps:
        Hard ceiling on simulated steps (a diagnosable backstop against
        pathological fault plans); defaults to a generous multiple of
        the instance's total work.
    fault_aware:
        Enable fault-aware admission (see module docstring).  Off by
        default; has zero effect while no fault window is active.
    journal / checkpoint_every:
        Crash-consistent journaling, as in :class:`GatedExecutor`.
    """

    span_name = "executor.resilient_run"
    label = "resilient executor"

    def __init__(
        self,
        instance: WORMSInstance,
        injector: "FaultInjector | None" = None,
        *,
        retry_budget: int = 5,
        max_replans: int = 2,
        replanner=None,
        max_steps: "int | None" = None,
        fault_aware: bool = False,
        journal=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        super().__init__(instance, journal=journal,
                         checkpoint_every=checkpoint_every)
        if injector is not None and injector.is_zero_plan:
            injector = None  # zero plan == no injector: skip all fault queries
        self.injector = injector
        self.retry_budget = max(1, int(retry_budget))
        self.max_replans = max(0, int(max_replans))
        self.replanner = replanner if replanner is not None else worms_replan
        if max_steps is None:
            work = max(1, instance.total_work())
            max_steps = 1000 + 50 * work
        self.max_steps = max_steps
        self.fault_aware = bool(fault_aware)

    # ------------------------------------------------------------------
    def run(self, flushes: "list[Flush]") -> FlushSchedule:
        """Execute ``flushes`` under faults; returns the realized schedule.

        The realized schedule records only the flushes that *succeeded*
        (a partial delivery appears as the delivered subset), so it is
        always a valid schedule of the fault-free model and can be
        checked with :func:`repro.dam.validator.validate_valid`.
        """
        schedule = super().run(flushes)
        stats = self.stats
        if self.injector is not None:
            stats.fault_events = list(self.injector.events)
        obs = current_obs()
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter(
                "executor_retries_total", "failed flush attempts retried"
            ).inc(stats.failed_attempts)
            metrics.counter(
                "executor_partial_deliveries_total",
                "flushes that delivered a strict subset",
            ).inc(stats.partial_deliveries)
            metrics.counter(
                "executor_replans_total", "mid-run re-planning rounds"
            ).inc(stats.replans)
            metrics.counter(
                "executor_wait_steps_total",
                "steps idled waiting out fault windows/backoff",
            ).inc(stats.wait_steps)
            metrics.counter(
                "executor_stalled_skips_total",
                "flushes skipped because a node was observed stalled",
            ).inc(stats.stalled_skips)
        return schedule
