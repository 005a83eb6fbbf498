"""Fault-tolerant execution of priority-ordered flush lists.

:class:`ResilientExecutor` extends the admission-gated executor with the
recovery semantics a production flusher needs when IOs can fail
(see :mod:`repro.faults`):

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
reactively, the selection loop consults the injector's *current* fault
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
:class:`~repro.faults.FaultPlan`) the selection logic below makes
exactly the same decisions as :class:`GatedExecutor.run`, merges
included, so the realized schedule is byte-identical — resilience costs
nothing until a fault actually fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.faults.injector import (
    FaultInjector,
    OUTCOME_FAILED,
    OUTCOME_PARTIAL,
)
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE
from repro.policies.executor import (
    DEFAULT_CHECKPOINT_EVERY,
    EdgeQueues,
    GatedExecutor,
    MAX_IDLE_STEPS,
    PendingFlush,
    as_pending,
    back_off,
    record_run_metrics,
    settle_partial,
    stalled_error,
)
from repro.tree.messages import Message
from repro.util.errors import (
    ExecutionStalledError,
    InvalidInstanceError,
    ReproError,
)

#: ``scan="auto"`` switches to the vectorized readiness scan at this many
#: pending flushes (fault-free runs only; see :class:`_VectorScan`).
VECTOR_SCAN_AUTO_THRESHOLD = 100_000


class _VectorScan:
    """Numpy-accelerated candidate prefilter for the priority scan.

    The per-step scan cost of the scalar path is one readiness probe per
    pending flush; at the ROADMAP's 10^6-message scale that probe — not
    the flushes themselves — dominates.  This helper keeps three parallel
    arrays over the pending list (first message id, source node, done
    flag) and answers "which pending flushes *could* run this step" with
    one vectorized compare::

        candidates = nonzero(location[first] == src & ~done)

    in priority (ascending-index) order.

    **Why the decisions stay byte-identical** (pinned by
    ``tests/policies/test_vector_scan.py``): the filter uses
    start-of-step state, and the two ways mid-step mutation could make it
    diverge from the scalar scan both cancel out —

    * a flush whose first message *arrives* at its source mid-step is not
      a candidate, but the scalar scan rejects it too (the message is in
      ``moved``, and moved messages never flush again in the same step);
    * a flush whose messages *leave* mid-step is a candidate, but the
      full scalar readiness/admission checks re-run inside the candidate
      loop and reject it exactly as the scalar scan would.

    Coalescing looks up merge members in :class:`EdgeQueues` with the same
    checks in both paths, so it does not depend on the prefilter.

    Only fault-free runs (``injector is None``) use the fast path: under
    faults the scalar scan also visits non-ready flushes to update
    backoff/stall bookkeeping, which a readiness prefilter would skip.
    """

    __slots__ = ("first", "src")

    def __init__(self, pending: "list[PendingFlush]") -> None:
        self.rebuild(pending)

    def rebuild(self, pending: "list[PendingFlush]") -> None:
        """Recompute the arrays (after compaction or a re-plan)."""
        n = len(pending)
        self.first = np.fromiter(
            (pf.flush.messages[0] for pf in pending), dtype=np.int64,
            count=n,
        )
        self.src = np.fromiter(
            (pf.flush.src for pf in pending), dtype=np.int64, count=n
        )

    def candidates(self, location: np.ndarray) -> np.ndarray:
        """Indices of maybe-ready pending flushes, in priority order."""
        return np.nonzero(location[self.first] == self.src)[0]


@dataclass
class ResilienceStats:
    """Counters describing what recovery machinery actually did."""

    failed_attempts: int = 0
    partial_deliveries: int = 0
    stalled_skips: int = 0
    replans: int = 0
    wait_steps: int = 0
    #: flushes parked by fault-aware admission without probing the node.
    fault_aware_skips: int = 0
    #: steps where degraded capacity made admission prefer completions.
    degraded_triage_steps: int = 0
    #: planned flushes merged into an earlier same-edge flush.
    coalesced: int = 0
    fault_events: list = field(default_factory=list)


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
    scan:
        Readiness-scan strategy: ``"scalar"`` (the classic per-flush
        probe), ``"vector"`` (numpy candidate prefilter, fault-free runs
        only — silently falls back to scalar under an injector), or
        ``"auto"`` (default: vector iff fault-free and the flush list has
        at least :data:`VECTOR_SCAN_AUTO_THRESHOLD` entries).  The two
        paths make byte-identical decisions; see :class:`_VectorScan`.
    journal / checkpoint_every:
        Crash-consistent journaling, as in :class:`GatedExecutor`.
    """

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
        scan: str = "auto",
        journal=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        super().__init__(instance, journal=journal,
                         checkpoint_every=checkpoint_every)
        if scan not in ("auto", "scalar", "vector"):
            raise InvalidInstanceError(
                f"scan must be 'auto', 'scalar' or 'vector', got {scan!r}"
            )
        self.scan = scan
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
        self.stats = ResilienceStats()

    # ------------------------------------------------------------------
    def run(self, flushes: "list[Flush]") -> FlushSchedule:
        """Execute ``flushes`` under faults; returns the realized schedule.

        The realized schedule records only the flushes that *succeeded*
        (a partial delivery appears as the delivered subset), so it is
        always a valid schedule of the fault-free model and can be
        checked with :func:`repro.dam.validator.validate_valid`.
        """
        obs = current_obs()
        span = obs.tracer.span(
            "executor.resilient_run", category="executor",
            flushes=len(flushes),
        )
        t_wall = obs.profiler.clock() if obs.enabled else 0.0
        inst = self.instance
        injector = self.injector
        is_leaf = self._is_leaf
        root = self._root
        P, B = inst.P, inst.B
        targets = inst.targets.tolist()
        location = [inst.start_of(m) for m in range(inst.n_messages)]
        occupancy = [0] * inst.topology.n_nodes
        for m in range(inst.n_messages):
            v = location[m]
            if v != root and not is_leaf[v] and v != targets[m]:
                occupancy[v] += 1

        def make_pending(fs: "list[Flush]") -> "list[PendingFlush]":
            return as_pending(fs, targets.__getitem__)

        journal = self._start_journal(location, targets)
        fault_aware = self.fault_aware and injector is not None
        #: node -> last step of its observed stall window (fault-aware).
        stall_until: dict[int, int] = {}
        pending = make_pending(flushes)
        edges = EdgeQueues(pending)
        n_pending = len(pending)
        # Vectorized readiness scan: decided once per run (see the class
        # docstring of _VectorScan for why only fault-free runs qualify).
        use_vector = injector is None and (
            self.scan == "vector"
            or (self.scan == "auto"
                and len(pending) >= VECTOR_SCAN_AUTO_THRESHOLD)
        )
        vscan: "_VectorScan | None" = None
        if use_vector:
            location = np.asarray(location, dtype=np.int64)
            vscan = _VectorScan(pending)
        where = location.__getitem__
        span.set("scan", "vector" if use_vector else "scalar")
        stats = self.stats
        schedule = FlushSchedule()
        t = 0
        idle = 0
        replans = 0
        try:
            while n_pending:
                t += 1
                if t > self.max_steps:
                    raise self._stalled(
                        f"resilient executor exceeded max_steps="
                        f"{self.max_steps}",
                        t, location, pending,
                    )
                capacity = P if injector is None else injector.effective_p(
                    t, P
                )
                # Fault-aware triage: while capacity is degraded, offer
                # the scarce slots to completion flushes (parking == 0)
                # first, then everyone else.  Never active fault-free.
                if fault_aware and capacity < P:
                    stats.degraded_triage_steps += 1
                    passes: "tuple[bool | None, ...]" = (True, False)
                else:
                    passes = (None,)
                ran: list[PendingFlush] = []
                attempted = 0
                waiting = False
                budget_exhausted = False
                moved: set[int] = set()
                departed: dict[int, int] = {}
                arrived: dict[int, int] = {}
                if vscan is not None:
                    # Fault-free fast path: vectorized candidate prefilter
                    # + the full scalar checks on every candidate, so the
                    # selected flushes are exactly the scalar scan's (see
                    # _VectorScan).  Faults never reach here, so none of
                    # the eligibility/stall/outcome guards are needed.
                    for i in vscan.candidates(location):
                        if attempted >= capacity:
                            break
                        pf = pending[i]
                        if pf.done:
                            continue
                        flush = pf.flush
                        src = flush.src
                        msgs = flush.messages
                        if location[msgs[0]] != src:
                            continue
                        dest = flush.dest
                        park = pf.parking
                        room = B - len(msgs)
                        park_room = room
                        if not is_leaf[dest]:
                            projected = (
                                occupancy[dest]
                                - departed.get(dest, 0)
                                + arrived.get(dest, 0)
                                + park
                            )
                            if projected > B:
                                continue
                            park_room = B - projected
                        if any(
                            location[m] != src or m in moved for m in msgs
                        ):
                            continue
                        attempted += 1
                        pf.done = True
                        flush, added, members = edges.coalesce(
                            pf, t, where, moved, room, park_room
                        )
                        park += added
                        msgs = flush.messages
                        ran.append(pf)
                        ran += members
                        stats.coalesced += len(members)
                        schedule.add(t, flush)
                        moved.update(msgs)
                        if journal is not None:
                            journal.record_flush(t, flush)
                        if src != root and not is_leaf[src]:
                            departed[src] = departed.get(src, 0) + flush.size
                        if not is_leaf[dest]:
                            arrived[dest] = arrived.get(dest, 0) + park
                        for m in msgs:
                            location[m] = dest
                    passes = ()  # the scalar scan below is skipped
                # Same one-pass priority scan as GatedExecutor.run; the
                # extra guards (eligibility, stalls, outcomes) all no-op
                # when injector is None, keeping the fault-free path
                # identical.
                for completions_only in passes:
                    if attempted >= capacity:
                        break
                    for pf in pending:
                        if pf.done:
                            continue
                        if attempted >= capacity:
                            break
                        if completions_only is True and pf.parking > 0:
                            continue
                        if completions_only is False and pf.parking == 0:
                            continue  # already offered in the first pass
                        flush = pf.flush
                        src = flush.src
                        dest = flush.dest
                        msgs = flush.messages
                        if location[msgs[0]] != src:
                            continue
                        park = pf.parking
                        room = B - len(msgs)
                        park_room = room
                        if not is_leaf[dest]:
                            projected = (
                                occupancy[dest]
                                - departed.get(dest, 0)
                                + arrived.get(dest, 0)
                                + park
                            )
                            if projected > B:
                                continue
                            park_room = B - projected
                        if any(
                            location[m] != src or m in moved for m in msgs
                        ):
                            continue
                        # Runnable but for faults: a backoff or a stall
                        # window holds it, so the step may pass idle.
                        if pf.eligible_at > t:
                            waiting = True
                            continue
                        if fault_aware and (
                            stall_until.get(src, 0) >= t
                            or stall_until.get(dest, 0) >= t
                        ):
                            # Known-stalled window: park without probing.
                            stats.fault_aware_skips += 1
                            waiting = True
                            continue
                        if injector is not None and (
                            injector.is_stalled(t, src)
                            or injector.is_stalled(t, dest)
                        ):
                            stats.stalled_skips += 1
                            if fault_aware:
                                for node in (src, dest):
                                    end = injector.stall_window_end(t, node)
                                    if end is not None and end > stall_until.get(
                                        node, 0
                                    ):
                                        stall_until[node] = end
                            waiting = True
                            continue
                        # Selected: the IO is attempted and the slot is
                        # consumed whatever the outcome.
                        attempted += 1
                        flush, added, members = edges.coalesce(
                            pf, t, where, moved, room, park_room,
                            completions_only is True,
                        )
                        park += added
                        msgs = flush.messages
                        group = [pf, *members]
                        stats.coalesced += len(members)
                        if injector is None:
                            delivered: tuple[int, ...] = msgs
                            status = None
                        else:
                            status, delivered = injector.flush_outcome(
                                t, src, dest, msgs
                            )
                        if status == OUTCOME_FAILED:
                            stats.failed_attempts += 1
                            for g in group:
                                back_off(g, t)
                            attempt = max(g.attempts for g in group)
                            if journal is not None:
                                journal.record_fault(
                                    t, "failed_flush", src, dest,
                                    f"{len(msgs)} msgs no-oped "
                                    f"(attempt {attempt})",
                                )
                            if attempt >= self.retry_budget:
                                budget_exhausted = True
                            continue
                        if status == OUTCOME_PARTIAL:
                            stats.partial_deliveries += 1
                            # Each merged flush redelivers its own
                            # remainder at its own priority slot.
                            ran += settle_partial(
                                group, delivered, targets, t
                            )
                            attempt = max(g.attempts for g in group)
                            if journal is not None:
                                journal.record_fault(
                                    t, "partial_flush", src, dest,
                                    f"delivered {len(delivered)}/"
                                    f"{len(msgs)} msgs "
                                    f"(attempt {attempt})",
                                )
                            if attempt >= self.retry_budget:
                                budget_exhausted = True
                            flush = Flush(src, dest, delivered)
                            park = sum(
                                1 for m in delivered if targets[m] != dest
                            )
                        else:
                            pf.done = True
                            ran += group
                        schedule.add(t, flush)
                        moved.update(delivered)
                        if journal is not None:
                            journal.record_flush(t, flush)
                        if src != root and not is_leaf[src]:
                            departed[src] = departed.get(src, 0) + len(delivered)
                        if not is_leaf[dest]:
                            arrived[dest] = arrived.get(dest, 0) + park
                        for m in delivered:
                            location[m] = dest

                if attempted == 0:
                    if waiting:
                        # A flush that could run is held by a stall window
                        # or backoff: time genuinely passes; the realized
                        # schedule gets an idle step.  Bounded because
                        # windows and backoffs are finite (max_steps
                        # backstops pathologies).  Faults never mask a
                        # deadlock: a held flush that is not ready or
                        # admissible does not count.
                        stats.wait_steps += 1
                        idle = 0
                        continue
                    idle += 1
                    if idle > MAX_IDLE_STEPS:
                        t -= 1
                        pending = self._replan_or_raise(
                            t, location, pending, replans,
                            reason="deadlocked (flush list is not laminar?)",
                            make_pending=make_pending,
                        )
                        edges = EdgeQueues(pending)
                        n_pending = len(pending)
                        replans += 1
                        idle = 0
                        if vscan is not None:
                            vscan.rebuild(pending)
                        continue
                    t -= 1
                    continue
                idle = 0
                for v, d in departed.items():
                    occupancy[v] -= d
                for v, a in arrived.items():
                    occupancy[v] += a
                n_pending -= len(ran)
                if journal is not None and moved:
                    journal.end_step(t, location)
                if n_pending and len(pending) > 2 * n_pending:
                    pending = [pf for pf in pending if not pf.done]
                    if vscan is not None:
                        vscan.rebuild(pending)
                if budget_exhausted and n_pending:
                    pending = self._replan_or_raise(
                        t, location, pending, replans,
                        reason="retry budget exhausted",
                        make_pending=make_pending,
                    )
                    edges = EdgeQueues(pending)
                    n_pending = len(pending)
                    replans += 1
                    if vscan is not None:
                        vscan.rebuild(pending)
        except ExecutionStalledError:
            if journal is not None:
                journal.abort()
            span.set("stalled", True)
            span.finish()
            raise
        if injector is not None:
            self.stats.fault_events = list(injector.events)
        schedule = schedule.trim()
        if journal is not None:
            journal.finish(schedule.n_steps, location)
        if obs.enabled:
            obs.profiler.add(PHASE_EXECUTE, obs.profiler.clock() - t_wall)
            span.set_steps(1, schedule.n_steps)
            record_run_metrics(obs.metrics, schedule, stats.coalesced)
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
        span.finish()
        return schedule

    # ------------------------------------------------------------------
    def _replan_or_raise(
        self,
        t: int,
        location: "list[int]",
        pending: "list[PendingFlush]",
        replans: int,
        *,
        reason: str,
        make_pending,
    ) -> "list[PendingFlush]":
        """Re-plan the surviving messages, or raise if out of options."""
        pending = [pf for pf in pending if not pf.done]
        if replans >= self.max_replans:
            raise self._stalled(
                f"resilient executor stalled ({reason}; "
                f"{replans} replan(s) already used)",
                t, location, pending,
            )
        targets = self.instance.targets
        remaining = [
            m
            for m in range(self.instance.n_messages)
            if location[m] != int(targets[m])
        ]
        obs = current_obs()
        with obs.tracer.span(
            "executor.replan", category="executor",
            reason=reason, remaining=len(remaining), step=t,
        ):
            try:
                new_flushes = self.replanner(
                    self.instance, remaining, location
                )
            except ReproError as exc:
                raise self._stalled(
                    f"resilient executor stalled ({reason}; "
                    f"replan failed: {exc})",
                    t, location, pending,
                ) from exc
        if not new_flushes and remaining:
            raise self._stalled(
                f"resilient executor stalled ({reason}; replanner returned "
                "no flushes for surviving messages)",
                t, location, pending,
            )
        self.stats.replans += 1
        return make_pending(new_flushes)

    def _stalled(
        self,
        header: str,
        t: int,
        location: "list[int]",
        pending: "list[PendingFlush]",
    ) -> ExecutionStalledError:
        return stalled_error(
            header,
            step=t,
            instance=self.instance,
            location=location,
            pending_flushes=[pf.flush for pf in pending if not pf.done],
        )
