"""Admission-gated execution of ordered flush lists.

Given a list of flushes in a *desired priority order* (e.g. the Lemma 8
order induced by an MPHTF task schedule), the gate replays them under
the DAM constraints, producing a schedule that is **valid by
construction**:

* a flush is *ready* when all of its messages currently sit at its source;
* a flush is *admissible* when its destination is a leaf or currently
  parks at most ``B - size`` messages (so no internal node ever retains
  more than ``B`` messages across steps);
* each time step greedily runs up to ``P`` ready-and-admissible flushes in
  priority order.

**One gate.**  The scan that applies these rules is
:meth:`repro.serve.router.ShardEngine.step`, and nothing else implements
it.  This module holds the rules' data structures (:class:`PendingFlush`,
:class:`EdgeQueues` and the fault settlement helpers) and
:class:`GatedExecutor`, the *drain loop*: it seeds a one-shard engine
with the instance's start state and the priority order and steps it
until no flush is pending.  The loop adds only what a batch run has and
a service must not do: a step where nothing was attempted and nothing
was waiting is rolled back (an idle step would inflate costs),
``MAX_IDLE_STEPS`` of those in a row raise (or, in
:class:`~repro.policies.resilient.ResilientExecutor`, re-plan), and the
journal gets its checkpoints.

**Coalescing.**  The DAM model lets one IO move up to ``B`` messages
along an edge, but a priority list usually holds several small flushes
on the same edge.  When the gate selects a flush ``src -> dest`` it
folds in *later* pending flushes on the same edge that are eligible and
fully ready this step, passing over any whose messages would push the
merged flush past ``B`` or ``dest``'s projected parked count past
``B``.  Members whose parked messages all continue to the same child of
``dest`` as the lead's (the same :attr:`PendingFlush.next_hop`) are
taken first, so messages that will cross the next edge together ride
down in one IO and can again share one there; the room left is filled
first-fit in priority order, which is the whole rule when the lead's
messages split across children or all complete at ``dest``.  The merged
members are consumed and the realized flush carries their union: one
IO, one of the step's ``P`` slots.  :class:`EdgeQueues` keeps the
pending flushes grouped per edge in priority order, so the lookup costs
O(pending on that edge).

For laminar flush lists (every flush's messages arrived at its source in
a single earlier flush — which is exactly what the packed-set reduction
produces) this never deadlocks: the deepest parked group always has an
admissible next flush, because nothing is parked below it.  Coalescing
keeps the list laminar: only *whole* ready flushes merge, each member's
messages arrived at ``src`` together, so their union arrives at ``dest``
together and every later flush of those messages still finds its group
intact.  The *realized* schedule is not laminar, though: a merged flush
can carry messages that reached ``src`` in different IOs, so replaying
it as a priority list under faults may deadlock and fall back to the
re-planner of :class:`~repro.policies.resilient.ResilientExecutor`.
Replay the planned list instead
(:meth:`~repro.policies.base.Policy.priority_order`).

**Durability** (``journal=``): pass a path or an open
:class:`~repro.dam.journal.JournalWriter` and the executor streams every
realized flush plus a :class:`~repro.dam.trace.CheckpointRecord` every
``checkpoint_every`` steps into a crash-consistent journal, so a killed
process can be resumed exactly (see :mod:`repro.dam.journal`).  With
``journal=None`` (the default) no journal state is even allocated and
the realized schedule is byte-for-byte what it always was.

**Scan cost.**  The priority scan re-checks the readiness of every
pending flush each step.  Four observations keep that tractable at
millions of messages without changing a single decision: a flush whose
*first* message is elsewhere cannot be ready (O(1) reject covers the
common front-blocked case); how many of a flush's messages will *park*
at its destination, and where they go next, are static properties,
precomputed once (:func:`parking_and_hop`), so the O(1)
admission test runs before the O(size) readiness check (coalesced
flushes fill destinations to ``B``, leaving many ready flushes blocked
on space); and consumed flushes are flagged and compacted away lazily
instead of rebuilding the pending list every step, with a live count of
the open ones.  Merge candidates are screened the same way: size and
space first, readiness last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.dam.trace import CheckpointRecord
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE
from repro.util.errors import (
    ExecutionStalledError,
    InvalidInstanceError,
    ReproError,
)

#: Safety valve: abort rather than loop forever on a malformed flush list.
MAX_IDLE_STEPS = 4

#: How many parked messages / pending flushes to list in an error message.
_DIAG_LIMIT = 5

#: Default checkpoint cadence (steps) when journaling is enabled.
DEFAULT_CHECKPOINT_EVERY = 32


@dataclass(eq=False)
class PendingFlush:
    """A planned flush awaiting execution, with its retry bookkeeping."""

    flush: Flush
    #: messages that do not complete at dest (static admission cost).
    parking: int = 0
    #: the one child of dest that every parked message continues to;
    #: -1 when they split across children or nothing parks.  Set from
    #: the planned flush and from a fault's remainder.  A paced split's
    #: suffix keeps its obligation's, which may then be stale (the
    #: suffix may park nothing, or all continue to one child of a split
    #: obligation): the field only orders the members a merge takes
    #: first, and every member still passes each screen, so a stale hint
    #: never admits a flush the gate would refuse.
    next_hop: int = -1
    attempts: int = 0
    eligible_at: int = 0  # earliest step this flush may be attempted again
    done: bool = False


def parking_and_hop(
    dest: int, messages: "tuple[int, ...]", target_of, topology
) -> "tuple[int, int]":
    """``(parking, next_hop)`` of ``messages`` flushed into ``dest``.

    ``parking`` counts the messages whose target is not ``dest``;
    ``next_hop`` is the one child of ``dest`` on the path to all of their
    targets (:meth:`~repro.tree.TreeTopology.child_towards`), or -1 when
    they split across children or nothing parks (a leaf ``dest`` parks
    nothing).
    """
    targets = [*map(target_of, messages)]
    parking = len(targets) - targets.count(dest)
    if not parking:
        return 0, -1
    hop = -1
    for target in set(targets):
        if target != dest:
            child = topology.child_towards(dest, target)
            if child != hop:
                if hop >= 0:
                    return parking, -1  # split across children
                hop = child
    return parking, hop


def as_pending(
    flushes: "list[Flush]", target_of, topology
) -> "list[PendingFlush]":
    """Wrap ``flushes`` for the gate; ``target_of(m)`` is m's target node.

    Each flush's parking and next hop come from :func:`parking_and_hop`.
    """
    return [
        PendingFlush(f, *parking_and_hop(f.dest, f.messages, target_of,
                                         topology))
        for f in flushes
    ]


class EdgeQueues:
    """Pending flushes grouped by ``(src, dest)``, each in priority order.

    The coalescing index of the admission gate (see module docstring).
    Flushes keep their edge for life (a partial remainder stays on it),
    so a queue only ever loses entries: :meth:`coalesce` drops the
    finished ones at its head as it goes.
    """

    __slots__ = ("_queues",)

    def __init__(self, pending: "list[PendingFlush]" = ()) -> None:
        self._queues: "dict[tuple[int, int], list[PendingFlush]]" = {}
        self.extend(pending)

    def extend(self, pending: "list[PendingFlush]") -> None:
        """Append ``pending`` (already in priority order) to the queues."""
        queues = self._queues
        for pf in pending:
            f = pf.flush
            queue = queues.get((f.src, f.dest))
            if queue is None:
                queues[(f.src, f.dest)] = [pf]
            else:
                queue.append(pf)

    def coalesce(
        self,
        lead: PendingFlush,
        t: int,
        where,
        moved: "set[int]",
        size_room: int,
        park_room: int,
        completions_only: bool = False,
    ) -> "tuple[Flush, list[PendingFlush]]":
        """Merge later same-edge flushes into ``lead`` at step ``t``.

        A member must be eligible (``eligible_at <= t``) and fully ready
        (every message at ``src`` per ``where(m)``, none moved this step
        or already in the merged flush); with ``completions_only`` it must
        also park nothing.  A member that would bring the merge past
        ``size_room`` more messages or ``park_room`` more parked messages
        at ``dest`` is passed over.  When ``lead`` has a next hop, members
        with the same next hop are taken first, so messages that cross
        the next edge together also share this IO; the room left is then
        filled first-fit in priority order, which is the whole rule for a
        lead without one.

        Returns ``(flush, members)``: the single IO carrying ``lead``
        plus its members, and the members themselves, already marked
        done.  A caller whose IO fails or partially applies re-opens them
        with :func:`back_off` / :func:`settle_partial`; the lead is the
        caller's to settle.
        """
        flush = lead.flush
        if size_room <= 0:
            return flush, []
        src = flush.src
        queue = self._queues[(src, flush.dest)]
        at = queue.index(lead)
        head = 0
        while head < at and queue[head].done:
            head += 1
        if head:
            del queue[:head]
            at -= head
        hop = lead.next_hop
        members: "list[PendingFlush]" = []
        taken = None
        # With a next hop, pass 1 screens the members that share it and
        # pass 2 the rest, so each member is screened once: the room only
        # shrinks as members join, so a pass-1 reject stays rejected.
        for same_hop in (True, False) if hop >= 0 else (None,):
            for i in range(at + 1, len(queue)):
                pf = queue[i]
                if pf.done or pf.eligible_at > t:
                    continue
                if same_hop is not None and (pf.next_hop == hop) != same_hop:
                    continue
                park = pf.parking
                if park > park_room or (completions_only and park):
                    continue
                msgs = pf.flush.messages
                if len(msgs) > size_room:
                    continue  # would overflow: a smaller later one may fit
                if where(msgs[0]) != src:
                    continue
                if taken is None:
                    taken = set(flush.messages)
                if (
                    [*map(where, msgs)].count(src) != len(msgs)
                    or not moved.isdisjoint(msgs)
                    or not taken.isdisjoint(msgs)
                ):
                    continue
                size_room -= len(msgs)
                park_room -= park
                pf.done = True
                members.append(pf)
                if not size_room:
                    break
                taken.update(msgs)
            if not size_room:
                break
        if not members:
            return flush, members
        msgs = flush.messages
        for pf in members:
            msgs += pf.flush.messages
        return Flush(src, flush.dest, msgs), members


def back_off(pf: PendingFlush, t: int) -> None:
    """Charge ``pf`` one failed attempt at step ``t``: exponential backoff.

    ``pf`` stays (or, as a coalesced member, becomes again) pending.
    """
    pf.done = False
    pf.attempts += 1
    pf.eligible_at = t + 1 + (1 << (pf.attempts - 1))


def settle_partial(
    group: "list[PendingFlush]", delivered: "tuple[int, ...]", target_of,
    topology, t: int,
) -> "list[PendingFlush]":
    """Apply a partial outcome to every flush merged into one IO.

    A flush whose messages were all delivered is done; every other one
    keeps its undelivered remainder at its own priority slot, with the
    remainder's parking and next hop, and backs off on its own.  Returns
    the flushes that are done.
    """
    got = set(delivered)
    finished = []
    for pf in group:
        flush = pf.flush
        remainder = tuple(m for m in flush.messages if m not in got)
        if not remainder:
            pf.done = True
            finished.append(pf)
            continue
        dest = flush.dest
        pf.flush = Flush(flush.src, dest, remainder)
        pf.parking, pf.next_hop = parking_and_hop(
            dest, remainder, target_of, topology
        )
        back_off(pf, t)
    return finished


def stalled_error(
    header: str,
    *,
    step: int,
    instance: WORMSInstance,
    location: "list[int]",
    pending_flushes: "list[Flush]",
) -> ExecutionStalledError:
    """Build a diagnosable :class:`ExecutionStalledError`.

    Lists the first few parked (undelivered) messages with their current
    nodes and the highest-priority flush that could not run, so a
    malformed flush list can be debugged from the message alone.
    """
    targets = instance.targets
    parked = tuple(
        (m, int(location[m]))
        for m in range(instance.n_messages)
        if location[m] != int(targets[m])
    )
    blocking = pending_flushes[0] if pending_flushes else None
    lines = [f"{header} at step {step}: {len(pending_flushes)} flush(es) "
             f"pending, {len(parked)} message(s) parked"]
    for m, v in parked[:_DIAG_LIMIT]:
        lines.append(f"  message {m} parked at node {v} "
                     f"(target {int(targets[m])})")
    if len(parked) > _DIAG_LIMIT:
        lines.append(f"  ... and {len(parked) - _DIAG_LIMIT} more")
    if blocking is not None:
        lines.append(f"  blocked on inadmissible/unready flush {blocking!r}")
    return ExecutionStalledError(
        "\n".join(lines),
        step=step,
        parked_messages=parked,
        blocking_flush=blocking,
        pending_flushes=tuple(pending_flushes),
    )


def execute_flush_list(
    instance: WORMSInstance, flushes: list[Flush]
) -> FlushSchedule:
    """Run ``flushes`` (in priority order) through the gated executor."""
    return GatedExecutor(instance).run(flushes)


def record_run_metrics(
    metrics, schedule: FlushSchedule, coalesced: int
) -> None:
    """End-of-run counters of a :class:`GatedExecutor` drain.

    ``coalesced`` counts the planned flushes the gate folded into an
    earlier same-edge flush (see module docstring).

    Called only from enabled obs contexts, after the run finished — the
    disabled path never reaches this and never pays for it.
    """
    n_flushes = 0
    moved = 0
    size_hist = metrics.histogram(
        "executor_flush_size", "messages per realized flush"
    )
    for step in schedule.steps:
        for flush in step:
            n_flushes += 1
            moved += flush.size
            size_hist.observe(flush.size)
    metrics.counter(
        "executor_runs_total", "executor runs completed"
    ).inc()
    metrics.counter(
        "executor_steps_total", "DAM steps executed"
    ).inc(schedule.n_steps)
    metrics.counter(
        "executor_flushes_total", "flushes issued by executors"
    ).inc(n_flushes)
    metrics.counter(
        "executor_messages_moved_total", "message moves across all flushes"
    ).inc(moved)
    metrics.counter(
        "executor_coalesced_flushes_total",
        "planned flushes merged into an earlier same-edge flush",
    ).inc(coalesced)


def in_flight_locations(
    instance: WORMSInstance, targets: "list[int]"
) -> "dict[int, int]":
    """``{message: start node}`` for every message not starting at its
    target: the state a drain seeds its engine with."""
    starts = instance.start_nodes
    if starts is None:
        starts = repeat(instance.topology.root)
    return {
        m: v for m, (v, target) in enumerate(zip(starts, targets))
        if v != target
    }


def all_locations(engine, targets: "list[int]") -> "list[int]":
    """Every message's node: in flight per ``engine``, else its target."""
    location = list(targets)
    for m, v in engine.location.items():
        location[m] = v
    return location


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


#: ResilienceStats counters a drain adds from its engine's ShardStats.
_ENGINE_COUNTERS = (
    "failed_attempts", "partial_deliveries", "stalled_skips",
    "fault_aware_skips", "degraded_triage_steps", "coalesced",
)


class _RunJournal:
    """Per-run journaling state: completion tracking + record emission.

    Instantiated only when journaling is on, so the journal-free path
    allocates nothing.  It is the ``journal`` the drain hands to
    :meth:`~repro.serve.router.ShardEngine.step` (the shard id of its
    records is dropped: a batch journal has one shard).  Flushes the
    writer at every checkpoint — the durability points recovery resumes
    from.
    """

    def __init__(self, writer, owned: bool, targets: "list[int]",
                 checkpoint_every: int, engine) -> None:
        self.writer = writer
        self.owned = owned
        self.targets = targets
        self.every = checkpoint_every
        self.engine = engine
        self.completion = [0] * len(targets)
        #: whether a flush was recorded since the last end_step.
        self._flushed = False
        self._checkpoint(0)

    def _checkpoint(self, step: int) -> None:
        from repro.dam.journal import checkpoint_record

        location = all_locations(self.engine, self.targets)
        self.writer.append(checkpoint_record(CheckpointRecord(
            step, tuple(location), tuple(self.completion)
        )))
        self.writer.flush()

    def record_flush(self, t: int, _shard: int, flush: Flush) -> None:
        from repro.dam.journal import flush_record

        self.writer.append(flush_record(t, flush))
        self._flushed = True
        dest = flush.dest
        completion = self.completion
        for m in flush.messages:
            if self.targets[m] == dest and completion[m] == 0:
                completion[m] = t

    def record_fault(self, t: int, _shard: int, kind: str, src: int,
                     dest: int, detail: str) -> None:
        from repro.dam.journal import fault_record

        self.writer.append(fault_record(t, kind, src, dest, detail))

    def end_step(self, t: int) -> None:
        """Checkpoint on the cadence, after steps that moved messages."""
        if self._flushed and t % self.every == 0:
            self._checkpoint(t)
        self._flushed = False

    def finish(self, n_steps: int) -> None:
        """The run completed: final checkpoint + ``end`` record."""
        self._checkpoint(n_steps)
        self.writer.append({"type": "end", "t": int(n_steps)})
        self.writer.flush()
        if self.owned:
            self.writer.close()

    def abort(self) -> None:
        """The run died (stall error): keep what we have durable."""
        self.writer.flush()
        if self.owned:
            self.writer.close()


class GatedExecutor:
    """See module docstring.  One instance per execution.

    Parameters
    ----------
    instance:
        The WORMS instance being executed.
    journal:
        ``None`` (no journaling), a filesystem path (the executor opens
        and owns a :class:`~repro.dam.journal.JournalWriter` with an
        auto-generated ``meta`` record), or an open writer (the caller
        owns lifecycle and ``meta``).
    checkpoint_every:
        Steps between journaled state snapshots (ignored without a
        journal).  Smaller = less replay on recovery, more bytes.
    """

    # The gated executor is the drain with no faults and no re-plans;
    # ResilientExecutor sets these per instance.
    injector = None
    fault_aware = False
    retry_budget = 5
    max_replans = 0
    replanner = None
    max_steps: "int | None" = None
    #: tracer span of :meth:`run`, and the name in error messages.
    span_name = "executor.run"
    label = "gated executor"

    def __init__(
        self,
        instance: WORMSInstance,
        *,
        journal=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.instance = instance
        if checkpoint_every < 1:
            raise InvalidInstanceError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = int(checkpoint_every)
        self.journal = journal
        self.stats = ResilienceStats()

    # ------------------------------------------------------------------
    def _start_journal(self, engine,
                       targets: "list[int]") -> "_RunJournal | None":
        """Open per-run journal state (None when journaling is off)."""
        if self.journal is None:
            return None
        from repro.dam.journal import JournalWriter

        inst = self.instance
        if isinstance(self.journal, JournalWriter):
            writer, owned = self.journal, False
        else:
            writer, owned = JournalWriter(
                self.journal,
                meta={
                    "n_messages": inst.n_messages,
                    "P": inst.P,
                    "B": inst.B,
                    "n_nodes": inst.topology.n_nodes,
                    "checkpoint_every": self.checkpoint_every,
                },
            ), True
        return _RunJournal(writer, owned, targets, self.checkpoint_every,
                           engine)

    def run(self, flushes: "list[Flush]") -> FlushSchedule:
        """Replay ``flushes`` in priority order; returns a valid schedule.

        The drain loop: a one-shard :class:`~repro.serve.router.ShardEngine`
        seeded with the instance's start state and ``flushes`` is stepped
        until no flush is pending.  The loop adds what only batch runs
        have: a step where nothing was attempted and nothing was waiting
        is rolled back, ``MAX_IDLE_STEPS`` of those in a row (or a flush
        reaching the retry budget) re-plan or raise, and ``max_steps``
        bounds the run.
        """
        # Imported here: the serve package imports this module.
        from repro.serve.router import ShardEngine

        # Observability is bound once per run: the disabled default makes
        # every per-step decision and allocation below identical to the
        # pre-instrumentation executor (pinned by tests/obs).
        obs = current_obs()
        span = obs.tracer.span(
            self.span_name, category="executor", flushes=len(flushes)
        )
        t_wall = obs.profiler.clock() if obs.enabled else 0.0
        inst = self.instance
        targets = inst.targets.tolist()
        engine = ShardEngine(
            0, inst.topology, inst.P, inst.B, injector=self.injector,
            fault_aware=self.fault_aware, retry_budget=self.retry_budget,
        )
        engine.restore_state(in_flight_locations(inst, targets), targets)
        engine.set_plan(flushes)
        journal = self._start_journal(engine, targets)
        stats = self.stats
        max_steps = self.max_steps
        t = 0
        idle = 0
        replans = 0
        try:
            while engine.pending_flushes:
                t += 1
                if max_steps is not None and t > max_steps:
                    raise self._stalled(
                        f"{self.label} exceeded max_steps={max_steps}",
                        t, engine, targets,
                    )
                engine.step(t, journal)
                if not engine.attempted:
                    if not engine.idle_streak:
                        # The engine's deadlock probe stayed quiet, so a
                        # flush that could run is held by a stall window
                        # or backoff: time genuinely passes; the realized
                        # schedule gets an idle step.  Bounded because
                        # windows and backoffs are finite (max_steps
                        # backstops pathologies).
                        stats.wait_steps += 1
                        idle = 0
                        continue
                    # Nothing could run: roll the step counter back (an
                    # idle step would inflate costs) and retry; a streak
                    # of these is a deadlock.
                    t -= 1
                    idle += 1
                    if idle > MAX_IDLE_STEPS:
                        self._replan_or_raise(
                            engine, t, targets, replans,
                            "deadlocked (flush list is not laminar?)",
                        )
                        replans += 1
                        idle = 0
                    continue
                idle = 0
                if journal is not None:
                    journal.end_step(t)
                if engine.budget_exhausted and engine.pending_flushes:
                    self._replan_or_raise(
                        engine, t, targets, replans, "retry budget exhausted"
                    )
                    replans += 1
        except ExecutionStalledError:
            if journal is not None:
                journal.abort()
            span.set("stalled", True)
            span.finish()
            raise
        finally:
            engine_stats = engine.stats
            for name in _ENGINE_COUNTERS:
                setattr(stats, name,
                        getattr(stats, name) + getattr(engine_stats, name))
        schedule = engine.schedule.trim()
        if journal is not None:
            journal.finish(schedule.n_steps)
        if obs.enabled:
            obs.profiler.add(PHASE_EXECUTE, obs.profiler.clock() - t_wall)
            span.set_steps(1, schedule.n_steps)
            record_run_metrics(obs.metrics, schedule, engine_stats.coalesced)
        span.finish()
        return schedule

    # ------------------------------------------------------------------
    def _replan_or_raise(
        self, engine, t: int, targets: "list[int]", replans: int, reason: str
    ) -> None:
        """Re-plan the surviving messages, or raise if out of options."""
        if replans >= self.max_replans:
            raise self._stalled(
                f"{self.label} stalled ({reason}; "
                f"{replans} replan(s) already used)",
                t, engine, targets,
            )
        location = all_locations(engine, targets)
        remaining = [
            m for m in range(self.instance.n_messages)
            if location[m] != targets[m]
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
                    f"{self.label} stalled ({reason}; "
                    f"replan failed: {exc})",
                    t, engine, targets,
                ) from exc
        if not new_flushes and remaining:
            raise self._stalled(
                f"{self.label} stalled ({reason}; replanner returned "
                "no flushes for surviving messages)",
                t, engine, targets,
            )
        self.stats.replans += 1
        engine.set_plan(new_flushes)

    def _stalled(
        self, header: str, t: int, engine, targets: "list[int]"
    ) -> ExecutionStalledError:
        return stalled_error(
            header,
            step=t,
            instance=self.instance,
            location=all_locations(engine, targets),
            pending_flushes=[pf.flush for pf in engine.pending if not pf.done],
        )
