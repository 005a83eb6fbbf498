"""Key-range shard routing and per-shard DAM execution engines.

A serving deployment splits the key space ``[0, key_space)`` into
contiguous ranges, one per shard.  Each shard is an independent
B^ε-shaped tree with its own DAM machine (``P`` parallel flushes, ``B``
messages per node/flush): the model of one storage device per shard.
:class:`ShardRouter` owns the ranges and the key -> (shard, leaf)
mapping; :class:`ShardEngine` owns one shard's live machine state and
executes its pending flush list one time step at a time.

:meth:`ShardEngine.step` is the repository's one admission gate: the
readiness / admissibility rules, priority scan and coalescing of ready
same-edge flushes described in :mod:`repro.policies.executor`.  The
batch executors (:class:`~repro.policies.executor.GatedExecutor`,
:class:`~repro.policies.resilient.ResilientExecutor`) are a drain loop
around a one-shard engine, so a single-shard serving run with one
up-front plan realizes their schedule exactly — the equivalence
``tests/serve/test_equivalence.py`` pins.  It carries the fault
semantics too: failed/partial flushes retry with exponential backoff,
stalled nodes are skipped, and with ``fault_aware=True`` degraded
capacity is triaged toward completion flushes first.  Only a ready,
admissible flush held by a backoff or stall window counts as waiting,
so faults never hide a deadlock from a forced re-plan.  The engine never
rolls time back: an idle step is a real step of wall-clock in a service
(arrivals may land during it); the batch drain loop rolls back idle
steps itself.

Coalescing (rule in :mod:`repro.policies.executor`: same-next-hop
members first, then first-fit in priority order) also merges across
epochs: flushes appended by an incremental plan join the in-flight
list's per-edge queues, so a fresh root flush can ride along with an
older one on the same edge.  Each planned flush and each fault
remainder gets its next hop from the tree
(:meth:`~repro.tree.TreeTopology.child_towards`); a paced split's suffix
keeps its obligation's, a hint that orders merges but admits nothing.
Only whole ready flushes merge, so the union arrives at ``dest``
together and the plan stays laminar.  A merged
flush is one IO with one fault outcome, settled per member (own
attempts, backoff and remainder), and under ``pace`` its messages spend
the step budget like any delivered message; a paced split's prefix
merges nothing, because it already used the whole remaining budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dam.schedule import Flush, FlushSchedule
from repro.faults.injector import (
    FaultInjector,
    OUTCOME_FAILED,
    OUTCOME_PARTIAL,
)
from repro.policies.executor import (
    EdgeQueues,
    PendingFlush,
    as_pending,
    back_off,
    settle_partial,
)
from repro.tree.builder import balanced_tree, beps_shape_tree
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError


@dataclass
class ShardStats:
    """Per-shard counters the serving report surfaces."""

    admitted: int = 0
    completed: int = 0
    flushes: int = 0
    failed_attempts: int = 0
    partial_deliveries: int = 0
    stalled_skips: int = 0
    fault_aware_skips: int = 0
    degraded_triage_steps: int = 0
    idle_steps: int = 0
    busy_steps: int = 0
    #: steps where the de-amortization pacer held back ready work.
    paced_holds: int = 0
    #: oversized flush obligations split to fit the per-step budget.
    paced_splits: int = 0
    #: planned flushes merged into an earlier same-edge flush.
    coalesced: int = 0


class ShardEngine:
    """One shard's live machine state + stepwise gated execution.

    State is sparse (dicts keyed by *global* message id) because a shard
    only ever holds the in-flight slice of the message stream, not a
    frozen instance.
    """

    def __init__(
        self,
        shard_id: int,
        topology: TreeTopology,
        P: int,
        B: int,
        *,
        injector: "FaultInjector | None" = None,
        fault_aware: bool = False,
        retry_budget: int = 5,
        pace: int = 0,
    ) -> None:
        if P < 1 or B < 1:
            raise InvalidInstanceError(f"need P >= 1 and B >= 1, got {P}, {B}")
        if pace < 0:
            raise InvalidInstanceError(f"pace must be >= 0, got {pace}")
        self.shard_id = int(shard_id)
        self.topology = topology
        self.P = int(P)
        self.B = int(B)
        if injector is not None and injector.is_zero_plan:
            injector = None
        self.injector = injector
        self.fault_aware = bool(fault_aware) and injector is not None
        self.retry_budget = max(1, int(retry_budget))
        #: de-amortization budget: max messages delivered per step (0 =
        #: unpaced).  Oversized obligations are split, the rest held —
        #: the engine-level half of :class:`repro.serve.planner.PacedPlanner`.
        self.pace = int(pace)
        self._is_leaf = [topology.is_leaf(v) for v in range(topology.n_nodes)]
        self._root = topology.root
        #: global message id -> current node (in-flight messages only).
        self.location: dict[int, int] = {}
        #: global message id -> target leaf (in-flight messages only).
        self.targets: dict[int, int] = {}
        #: parked (non-completed) messages per internal non-root node.
        self.occupancy = [0] * topology.n_nodes
        self.pending: "list[PendingFlush]" = []
        #: the same flushes per edge, for coalescing.
        self._edges = EdgeQueues()
        self.schedule = FlushSchedule()
        self.stats = ShardStats()
        #: messages currently at the root (admitted, not yet flushed down).
        self.root_backlog = 0
        #: node -> last step of its observed stall window (fault-aware).
        self._stall_until: dict[int, int] = {}
        #: consecutive steps with ready work but no progress (deadlock probe).
        self.idle_streak = 0
        #: live count of pending flushes not yet done.
        self._open = 0
        #: IOs the last :meth:`step` attempted, whatever their outcome.
        self.attempted = 0
        #: whether some flush of the last step reached ``retry_budget``.
        self.budget_exhausted = False

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages admitted to this shard and not yet completed."""
        return len(self.location)

    @property
    def pending_flushes(self) -> int:
        """Planned flushes not yet fully executed."""
        return self._open

    def unplanned(self, planned: "set[int]") -> "list[int]":
        """In-flight ids not covered by ``planned`` (helper for planners)."""
        return [m for m in self.location if m not in planned]

    def buffer_occupancy(self) -> "dict[int, int]":
        """Buffered message count per occupied node (root included).

        The live internal-node memory picture — what per-tenant buffer
        quotas (:mod:`repro.serve.tenancy`) bound; total equals
        :attr:`in_flight`."""
        occ: "dict[int, int]" = {}
        for node in self.location.values():
            occ[node] = occ.get(node, 0) + 1
        return occ

    def admit(self, msg_id: int, target_leaf: int, step: int) -> "int | None":
        """Place ``msg_id`` at the root; returns the completion step if the
        root *is* its target (single-node shard), else None."""
        root = self._root
        if target_leaf == root:
            # Degenerate shard (root == leaf): completes on admission.
            return step
        self.location[msg_id] = root
        self.targets[msg_id] = target_leaf
        self.root_backlog += 1
        self.stats.admitted += 1
        return None

    def root_stalled(self, step: int) -> bool:
        """True iff the root is inside a known/observed stall window.

        Admission control consults this so backpressure composes with
        fault-aware triage: while the shard's ingest point is stalled the
        queue holds instead of piling messages into a frozen root.
        """
        if self.injector is None:
            return False
        if self.fault_aware and self._stall_until.get(self._root, 0) >= step:
            return True
        return self.injector.is_stalled(step, self._root)

    def wipe(self) -> None:
        """Lose all in-flight machine state (a simulated shard crash).

        The chaos harness calls this to model a whole-shard kill: every
        location, target, buffer occupancy, and pending plan is gone, as
        if the shard process died.  The realized :attr:`schedule` and
        :attr:`stats` survive — they belong to the run's accounting, not
        to the shard's memory — and the supervisor is expected to
        :meth:`restore_state` from the journal before stepping again.
        """
        self.location = {}
        self.targets = {}
        self.occupancy = [0] * self.topology.n_nodes
        self.pending = []
        self._open = 0
        self._edges = EdgeQueues()
        self.root_backlog = 0
        self._stall_until = {}
        self.idle_streak = 0

    def restore_state(
        self,
        locations: "dict[int, int]",
        targets: "dict[int, int]",
        *,
        schedule: "FlushSchedule | None" = None,
    ) -> None:
        """Rebuild in-flight state from a recovered snapshot.

        ``locations`` maps every in-flight global message id to its
        current node; ``targets`` must cover at least those ids.  Buffer
        occupancy and the root backlog are re-derived from the locations
        (the journal replay in :mod:`repro.serve.supervisor` produces
        them), the pending plan is cleared — the caller re-plans from
        the restored locations — and, when given, ``schedule`` replaces
        the realized schedule (restarts rebuild it from the journal so
        the report stays complete across a kill).
        """
        root = self._root
        is_leaf = self._is_leaf
        self.location = {int(m): int(v) for m, v in locations.items()}
        self.targets = {int(m): int(targets[m]) for m in locations}
        occupancy = [0] * self.topology.n_nodes
        backlog = 0
        for v in self.location.values():
            if v == root:
                backlog += 1
            elif not is_leaf[v]:
                occupancy[v] += 1
        self.occupancy = occupancy
        self.root_backlog = backlog
        self.pending = []
        self._open = 0
        self._edges = EdgeQueues()
        self._stall_until = {}
        self.idle_streak = 0
        if schedule is not None:
            self.schedule = schedule

    def set_plan(self, flushes: "list[Flush]") -> None:
        """Replace the pending priority list (epoch full re-plan)."""
        self.pending = as_pending(flushes, self.targets.get, self.topology)
        self._open = len(self.pending)
        self._edges = EdgeQueues(self.pending)

    def append_plan(self, flushes: "list[Flush]") -> None:
        """Append flushes at the tail of the priority list (incremental)."""
        added = as_pending(flushes, self.targets.get, self.topology)
        self.pending.extend(added)
        self._open += len(added)
        self._edges.extend(added)

    # ------------------------------------------------------------------
    def step(self, t: int, journal=None) -> "list[tuple[int, int]]":
        """Run one DAM time step; returns ``(msg_id, step)`` completions.

        Executes up to ``P`` ready-and-admissible pending flushes in
        priority order, coalescing ready same-edge flushes into each
        (see :mod:`repro.policies.executor`); with an injector,
        failed/partial outcomes retry with backoff.  ``journal`` (if
        given) receives shard-tagged flush/fault records in scan order.
        Afterwards :attr:`attempted` counts the IOs tried and
        :attr:`budget_exhausted` says whether one of them brought a flush
        to ``retry_budget`` attempts: the batch drain loop's idle and
        re-plan signals.
        """
        is_leaf = self._is_leaf
        root = self._root
        location = self.location
        targets = self.targets
        occupancy = self.occupancy
        injector = self.injector
        fault_aware = self.fault_aware
        stall_until = self._stall_until
        stats = self.stats
        schedule = self.schedule
        coalesce = self._edges.coalesce
        where = location.get
        B = self.B
        capacity = (
            self.P if injector is None else injector.effective_p(t, self.P)
        )
        if fault_aware and capacity < self.P:
            stats.degraded_triage_steps += 1
            passes: "tuple[bool | None, ...]" = (True, False)
        else:
            passes = (None,)
        pace = self.pace
        completions: "list[tuple[int, int]]" = []
        ran = 0
        attempted = 0
        exhausted = False
        settled = 0
        work_done = 0
        waiting = False
        paced_out = False
        moved: set[int] = set()
        departed: dict[int, int] = {}
        arrived: dict[int, int] = {}
        for completions_only in passes:
            if attempted >= capacity or paced_out:
                break
            for pf in self.pending:
                if pf.done:
                    continue
                if attempted >= capacity:
                    break
                if pace and work_done >= pace:
                    # Per-step work budget spent: hold the rest of the
                    # plan for the next step (de-amortization), without
                    # tripping the deadlock probe.
                    stats.paced_holds += 1
                    waiting = True
                    paced_out = True
                    break
                if (
                    completions_only is not None
                    and (pf.parking > 0) is completions_only
                ):
                    continue  # not this triage pass's kind of flush
                flush = pf.flush
                src = flush.src
                full = flush.messages
                if where(full[0]) != src:
                    continue  # O(1) reject: first message not here yet
                dest = flush.dest
                msgs = full
                # Messages completing at dest (a leaf, or their internal
                # target under the footnote-3 extension) never park.
                park = pf.parking
                room = B
                if pace:
                    budget = pace - work_done
                    if len(full) > budget:
                        # Oversized obligation: attempt only the prefix
                        # that fits the remaining step budget; the suffix
                        # stays pending at the same priority (a paced
                        # split).
                        msgs = full[:budget]
                        park = sum(1 for m in msgs if targets.get(m) != dest)
                    # Merged messages spend the step budget too.
                    room = min(B, budget)
                room -= len(msgs)
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
                # Ready: every message at src, none moved this step.
                if (
                    [*map(where, full)].count(src) != len(full)
                    or not moved.isdisjoint(full)
                ):
                    continue
                # Runnable but for faults: a backoff or a stall window
                # holds it, which is waiting, not a deadlock.
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
                    injector.is_stalled(t, src) or injector.is_stalled(t, dest)
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
                # Selected: the IO is attempted and the slot is consumed
                # whatever the outcome.
                attempted += 1
                flush, members = coalesce(
                    pf, t, where, moved, room, park_room,
                    completions_only is True,
                )
                if members:
                    # Merged members are whole, so the lead is too.
                    stats.coalesced += len(members)
                    msgs = full = flush.messages
                if injector is None:
                    status = None
                    delivered: "tuple[int, ...]" = msgs
                else:
                    status, delivered = injector.flush_outcome(
                        t, src, dest, msgs
                    )
                if status == OUTCOME_FAILED:
                    stats.failed_attempts += 1
                    group = [pf, *members]
                    for g in group:
                        back_off(g, t)
                    attempt = max(g.attempts for g in group)
                    exhausted |= attempt >= self.retry_budget
                    if journal is not None:
                        journal.record_fault(
                            t, self.shard_id, "failed_flush", src, dest,
                            f"{len(msgs)} msgs no-oped (attempt {attempt})",
                        )
                    continue
                if status == OUTCOME_PARTIAL:
                    stats.partial_deliveries += 1
                    # Each merged flush (a paced lead: its whole
                    # obligation) keeps its own remainder and backoff.
                    group = [pf, *members]
                    settled += len(settle_partial(
                        group, delivered, targets.get, self.topology, t
                    ))
                    attempt = max(g.attempts for g in group)
                    exhausted |= attempt >= self.retry_budget
                    if journal is not None:
                        journal.record_fault(
                            t, self.shard_id, "partial_flush", src, dest,
                            f"delivered {len(delivered)}/{len(msgs)} msgs "
                            f"(attempt {attempt})",
                        )
                    flush = Flush(src, dest, delivered)
                elif msgs is full:
                    pf.done = True
                    settled += 1 + len(members)
                else:
                    # Clean paced split: the untouched suffix becomes the
                    # pending obligation, immediately eligible, retry
                    # history and planned next hop (a merge-order hint)
                    # preserved.
                    suffix = full[len(msgs):]
                    pf.flush = Flush(src, dest, suffix)
                    pf.parking = sum(
                        1 for m in suffix if targets[m] != dest
                    )
                    stats.paced_splits += 1
                    flush = Flush(src, dest, delivered)
                ran += 1
                work_done += len(delivered)
                schedule.add(t, flush)
                stats.flushes += 1
                moved.update(delivered)
                if journal is not None:
                    journal.record_flush(t, self.shard_id, flush)
                before = len(completions)
                for m in delivered:
                    if targets[m] == dest:
                        completions.append((m, t))
                        del location[m]
                        del targets[m]
                    else:
                        location[m] = dest
                completed = len(completions) - before
                stats.completed += completed
                delivered_parking = len(delivered) - completed
                if src == root:
                    self.root_backlog -= len(delivered)
                elif not is_leaf[src]:
                    departed[src] = departed.get(src, 0) + len(delivered)
                if not is_leaf[dest]:
                    arrived[dest] = arrived.get(dest, 0) + delivered_parking
        for v, d in departed.items():
            occupancy[v] -= d
        for v, a in arrived.items():
            occupancy[v] += a
        self._open -= settled
        n_pending = self._open
        if n_pending and len(self.pending) > 2 * n_pending:
            self.pending = [pf for pf in self.pending if not pf.done]
        self.attempted = attempted
        self.budget_exhausted = exhausted
        if ran:
            stats.busy_steps += 1
            self.idle_streak = 0
        else:
            stats.idle_steps += 1
            if n_pending and not waiting:
                # Ready work exists but nothing could run: a candidate
                # deadlock (e.g. two appended plans blocking each other's
                # buffers).  The loop watches this streak and forces a
                # full re-plan.
                self.idle_streak += 1
            else:
                self.idle_streak = 0
        return completions


@dataclass(frozen=True)
class ShardSpec:
    """A shard's identity: its key range and its tree."""

    shard_id: int
    key_lo: int
    key_hi: int  # exclusive
    topology: TreeTopology
    #: leaves in increasing id order (the key range maps onto these).
    leaves: "tuple[int, ...]" = field(default=())

    def leaf_for_key(self, key: int) -> int:
        """The leaf of this shard's tree that owns ``key``."""
        span = self.key_hi - self.key_lo
        idx = (key - self.key_lo) * len(self.leaves) // span
        return self.leaves[min(idx, len(self.leaves) - 1)]


class ShardRouter:
    """Contiguous key-range routing over ``n_shards`` B^ε-tree shards.

    The key space splits into near-equal contiguous ranges; each range
    maps onto one shard's leaves in key order (so range queries stay
    local, the reason production systems shard by range rather than
    hash).  ``fanout > 0`` builds balanced ``fanout``-ary shard trees of
    the given height; otherwise B^ε-shaped trees with ``leaves`` leaves.
    """

    def __init__(
        self,
        n_shards: int,
        key_space: int,
        *,
        B: int,
        fanout: int = 0,
        height: int = 3,
        leaves: int = 64,
        eps: float = 0.5,
    ) -> None:
        if n_shards < 1:
            raise InvalidInstanceError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if key_space < n_shards:
            raise InvalidInstanceError(
                f"key_space ({key_space}) must be >= n_shards ({n_shards})"
            )
        self.n_shards = int(n_shards)
        self.key_space = int(key_space)
        #: Breaker-open diversion overlay: ``{src_shard: dst_shard}``.
        #: While present, arrivals keyed into ``src``'s range are routed
        #: to ``dst`` (resolved transitively, so a diverted-to shard
        #: that itself trips forwards the chain).  The base ranges are
        #: untouched — removing the entry restores normal routing.
        self.diverted: "dict[int, int]" = {}
        self.shards: "list[ShardSpec]" = []
        for s in range(self.n_shards):
            lo = s * self.key_space // self.n_shards
            hi = (s + 1) * self.key_space // self.n_shards
            topo = (
                balanced_tree(fanout, height)
                if fanout
                else beps_shape_tree(B, eps, leaves)
            )
            self.shards.append(
                ShardSpec(s, lo, hi, topo, tuple(topo.leaves))
            )

    def route(self, key: int) -> "tuple[int, int]":
        """Map a key to ``(shard_id, target_leaf)``."""
        if not (0 <= key < self.key_space):
            raise InvalidInstanceError(
                f"key {key} outside key space [0, {self.key_space})"
            )
        sid = min(
            key * self.n_shards // self.key_space, self.n_shards - 1
        )
        # Integer division can land one shard off at range boundaries
        # (ranges are floor-divided); fix up locally.
        while key < self.shards[sid].key_lo:
            sid -= 1
        while key >= self.shards[sid].key_hi:
            sid += 1
        home = self.shards[sid]
        final = self.resolve(sid)
        if final == sid:
            return sid, home.leaf_for_key(key)
        # Diverted: preserve key order on the host by mapping the key's
        # position within its *home* range proportionally onto the
        # host's leaves (the key itself is outside the host's range, so
        # the host's own leaf_for_key cannot place it).
        return final, self.divert_leaf(home, self.shards[final], key)

    @staticmethod
    def divert_leaf(home: ShardSpec, host: ShardSpec, key: int) -> int:
        """Host-shard leaf for a key diverted away from its home range."""
        span = home.key_hi - home.key_lo
        idx = (key - home.key_lo) * len(host.leaves) // span
        return host.leaves[min(idx, len(host.leaves) - 1)]

    # -- breaker-open diversion overlay --------------------------------
    def resolve(self, sid: int) -> int:
        """Follow the diversion overlay from ``sid`` to its current host.

        Transitive with a cycle guard: if following the chain revisits a
        shard (two shards diverted at each other), routing falls back to
        the *original* shard — a cycle means no healthy host exists, and
        the supervisor's spill queue is the right destination.
        """
        seen = {sid}
        cur = sid
        while cur in self.diverted:
            cur = self.diverted[cur]
            if cur in seen:
                return sid
            seen.add(cur)
        return cur

    def divert(self, src: int, dst: int) -> None:
        """Route ``src``'s key range to ``dst`` until :meth:`undivert`."""
        if src == dst:
            raise InvalidInstanceError(
                f"shard {src} cannot divert to itself"
            )
        for s in (src, dst):
            if not (0 <= s < self.n_shards):
                raise InvalidInstanceError(
                    f"shard {s} outside [0, {self.n_shards})"
                )
        self.diverted[src] = dst

    def undivert(self, src: int) -> None:
        """Remove ``src``'s overlay entry (no-op when not diverted)."""
        self.diverted.pop(src, None)
