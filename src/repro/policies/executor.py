"""Admission-gated executor for ordered flush lists.

Given a list of flushes in a *desired priority order* (e.g. the Lemma 8
order induced by an MPHTF task schedule), the executor replays them under
the DAM constraints, producing a schedule that is **valid by
construction**:

* a flush is *ready* when all of its messages currently sit at its source;
* a flush is *admissible* when its destination is a leaf or currently
  parks at most ``B - size`` messages (so no internal node ever retains
  more than ``B`` messages across steps);
* each time step greedily runs up to ``P`` ready-and-admissible flushes in
  priority order.

**Coalescing.**  The DAM model lets one IO move up to ``B`` messages
along an edge, but a priority list usually holds several small flushes
on the same edge.  When the gate selects a flush ``src -> dest`` it
folds in every *later* pending flush on the same edge that is eligible
and fully ready this step, in priority order, passing over any whose
messages would push the merged flush past ``B`` or ``dest``'s projected
parked count past ``B``.  The merged members are consumed and
the realized flush carries their union: one IO, one of the step's ``P``
slots.  :class:`EdgeQueues` keeps the pending flushes grouped per edge in
priority order, so the lookup costs O(pending on that edge).  Every gate
(this one, both scans of
:class:`~repro.policies.resilient.ResilientExecutor` and
:meth:`repro.serve.router.ShardEngine.step`) merges through it, so their
schedules stay byte-identical.

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
at its destination is a static property, precomputed once, so the O(1)
admission test runs before the O(size) readiness check (coalesced
flushes fill destinations to ``B``, leaving many ready flushes blocked
on space); and consumed flushes are flagged and compacted away lazily
instead of rebuilding the pending list every step.  Merge candidates are
screened the same way: size and space first, readiness last.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.dam.trace import CheckpointRecord
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE
from repro.util.errors import ExecutionStalledError, InvalidInstanceError

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
    attempts: int = 0
    eligible_at: int = 0  # earliest step this flush may be attempted again
    done: bool = False


def as_pending(flushes: "list[Flush]", target_of) -> "list[PendingFlush]":
    """Wrap ``flushes`` for a gate; ``target_of(m)`` is m's target node."""
    return [
        PendingFlush(
            f, parking=sum(1 for m in f.messages if target_of(m) != f.dest)
        )
        for f in flushes
    ]


class EdgeQueues:
    """Pending flushes grouped by ``(src, dest)``, each in priority order.

    The coalescing index of the admission gates (see module docstring).
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
    ) -> "tuple[Flush, int, list[PendingFlush]]":
        """Merge later same-edge flushes into ``lead`` at step ``t``.

        A member must be eligible (``eligible_at <= t``) and fully ready
        (every message at ``src`` per ``where(m)``, none moved this step
        or already in the merged flush); with ``completions_only`` it must
        also park nothing.  Members are taken first-fit in priority
        order: one that would bring the merge past ``size_room`` more
        messages or ``park_room`` more parked messages at ``dest`` is
        passed over.

        Returns ``(flush, parking, members)``: the single IO carrying
        ``lead`` plus its members, the members' added parking at
        ``dest``, and the members themselves, already marked done.  A
        caller whose IO fails or partially applies re-opens them with
        :func:`back_off` / :func:`settle_partial`; the lead is the
        caller's to settle.
        """
        flush = lead.flush
        if size_room <= 0:
            return flush, 0, []
        src = flush.src
        queue = self._queues[(src, flush.dest)]
        at = queue.index(lead)
        head = 0
        while head < at and queue[head].done:
            head += 1
        if head:
            del queue[:head]
            at -= head
        members: "list[PendingFlush]" = []
        parking = 0
        taken = None
        for i in range(at + 1, len(queue)):
            pf = queue[i]
            if pf.done or pf.eligible_at > t:
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
            if any(where(m) != src or m in moved or m in taken for m in msgs):
                continue
            size_room -= len(msgs)
            park_room -= park
            parking += park
            pf.done = True
            members.append(pf)
            if not size_room:
                break
            taken.update(msgs)
        if not members:
            return flush, 0, members
        msgs = flush.messages
        for pf in members:
            msgs += pf.flush.messages
        return Flush(src, flush.dest, msgs), parking, members


def back_off(pf: PendingFlush, t: int) -> None:
    """Charge ``pf`` one failed attempt at step ``t``: exponential backoff.

    ``pf`` stays (or, as a coalesced member, becomes again) pending.
    """
    pf.done = False
    pf.attempts += 1
    pf.eligible_at = t + 1 + (1 << (pf.attempts - 1))


def settle_partial(
    group: "list[PendingFlush]", delivered: "tuple[int, ...]", targets,
    t: int,
) -> "list[PendingFlush]":
    """Apply a partial outcome to every flush merged into one IO.

    A flush whose messages were all delivered is done; every other one
    keeps its undelivered remainder at its own priority slot and backs
    off on its own.  Returns the flushes that are done.
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
        pf.parking = sum(1 for m in remainder if targets[m] != dest)
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
    """End-of-run executor counters, shared by both executors.

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


class _RunJournal:
    """Per-run journaling state: completion tracking + record emission.

    Instantiated only when journaling is on, so the fault-free,
    journal-free path allocates nothing.  Flushes the writer at every
    checkpoint — the durability points recovery resumes from.
    """

    def __init__(self, writer, owned: bool, targets: "list[int]",
                 checkpoint_every: int, location: "list[int]") -> None:
        self.writer = writer
        self.owned = owned
        self.targets = targets
        self.every = checkpoint_every
        self.completion = [0] * len(targets)
        self._checkpoint(0, location)

    def _checkpoint(self, step: int, location: "list[int]") -> None:
        from repro.dam.journal import checkpoint_record

        self.writer.append(checkpoint_record(CheckpointRecord(
            step, tuple(int(v) for v in location), tuple(self.completion)
        )))
        self.writer.flush()

    def record_flush(self, t: int, flush: Flush) -> None:
        from repro.dam.journal import flush_record

        self.writer.append(flush_record(t, flush))
        dest = flush.dest
        completion = self.completion
        for m in flush.messages:
            if self.targets[m] == dest and completion[m] == 0:
                completion[m] = t

    def record_fault(self, t: int, kind: str, src: int, dest: int,
                     detail: str) -> None:
        from repro.dam.journal import fault_record

        self.writer.append(fault_record(t, kind, src, dest, detail))

    def end_step(self, t: int, location: "list[int]") -> None:
        if t % self.every == 0:
            self._checkpoint(t, location)

    def finish(self, n_steps: int, location: "list[int]") -> None:
        """The run completed: final checkpoint + ``end`` record."""
        self._checkpoint(n_steps, location)
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

    def __init__(
        self,
        instance: WORMSInstance,
        *,
        journal=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.instance = instance
        topo = instance.topology
        self._is_leaf = [topo.is_leaf(v) for v in range(topo.n_nodes)]
        self._root = topo.root
        if checkpoint_every < 1:
            raise InvalidInstanceError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = int(checkpoint_every)
        self.journal = journal

    # ------------------------------------------------------------------
    def _start_journal(self, location: "list[int]",
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
                           location)

    def run(self, flushes: list[Flush]) -> FlushSchedule:
        """Replay ``flushes`` in priority order; returns a valid schedule."""
        # Observability is bound once per run: the disabled default makes
        # every per-step decision and allocation below identical to the
        # pre-instrumentation executor (pinned by tests/obs).
        obs = current_obs()
        span = obs.tracer.span(
            "executor.run", category="executor", flushes=len(flushes)
        )
        t_wall = obs.profiler.clock() if obs.enabled else 0.0
        inst = self.instance
        is_leaf = self._is_leaf
        root = self._root
        P, B = inst.P, inst.B
        targets = inst.targets.tolist()
        location = [inst.start_of(m) for m in range(inst.n_messages)]
        occupancy = [0] * inst.topology.n_nodes  # parked msgs per internal node
        for m in range(inst.n_messages):
            v = location[m]
            if v != root and not is_leaf[v] and v != targets[m]:
                occupancy[v] += 1

        pending = as_pending(flushes, targets.__getitem__)
        edges = EdgeQueues(pending)
        where = location.__getitem__
        journal = self._start_journal(location, targets)
        n_pending = len(pending)
        coalesced = 0
        schedule = FlushSchedule()
        t = 0
        idle = 0
        try:
            while n_pending:
                t += 1
                ran: list[Flush] = []
                finished = 0
                moved: set[int] = set()
                # One pass over pending flushes in priority order; stop
                # once P flushes are placed.  Arrivals take effect *after*
                # the step, so readiness/admission use start-of-step state
                # plus this step's own departures/arrivals bookkeeping.
                departed: dict[int, int] = {}
                arrived: dict[int, int] = {}
                for pf in pending:
                    if pf.done:
                        continue
                    if len(ran) >= P:
                        break
                    flush = pf.flush
                    src = flush.src
                    msgs = flush.messages
                    if location[msgs[0]] != src:
                        continue  # O(1) reject: first message not here yet
                    dest = flush.dest
                    # Messages completing at dest (a leaf, or their
                    # internal target under the footnote-3 extension)
                    # never park there.
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
                    pf.done = True
                    flush, added, members = edges.coalesce(
                        pf, t, where, moved, room, park_room
                    )
                    park += added
                    msgs = flush.messages
                    finished += 1 + len(members)
                    coalesced += len(members)
                    ran.append(flush)
                    moved.update(msgs)
                    schedule.add(t, flush)
                    if src != root and not is_leaf[src]:
                        departed[src] = departed.get(src, 0) + flush.size
                    if not is_leaf[dest]:
                        arrived[dest] = arrived.get(dest, 0) + park
                    for m in msgs:
                        location[m] = dest
                if not ran:
                    idle += 1
                    if idle > MAX_IDLE_STEPS:
                        raise stalled_error(
                            "gated executor deadlocked (flush list is not "
                            "laminar?)",
                            step=t,
                            instance=inst,
                            location=location,
                            pending_flushes=[
                                pf.flush for pf in pending if not pf.done
                            ],
                        )
                    # Nothing ran: roll the step counter back (an idle step
                    # would inflate costs) and retry; the idle counter above
                    # turns a genuine no-progress state into an error.
                    t -= 1
                    continue
                idle = 0
                for v, d in departed.items():
                    occupancy[v] -= d
                for v, a in arrived.items():
                    occupancy[v] += a
                n_pending -= finished
                if journal is not None:
                    for flush in ran:
                        journal.record_flush(t, flush)
                    journal.end_step(t, location)
                if n_pending and len(pending) > 2 * n_pending:
                    pending = [pf for pf in pending if not pf.done]
        except ExecutionStalledError:
            if journal is not None:
                journal.abort()
            span.set("stalled", True)
            span.finish()
            raise
        schedule = schedule.trim()
        if journal is not None:
            journal.finish(schedule.n_steps, location)
        if obs.enabled:
            obs.profiler.add(PHASE_EXECUTE, obs.profiler.clock() - t_wall)
            span.set_steps(1, schedule.n_steps)
            record_run_metrics(obs.metrics, schedule, coalesced)
        span.finish()
        return schedule
