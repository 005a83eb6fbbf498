"""The paper's scheduler, packaged as policies.

Two variants:

* :class:`PaperPipelinePolicy` — the literal Section 4.3 pipeline
  (reduction -> MPHTF -> Lemma 8 -> Lemma 1).  Carries the theoretical
  O(1) guarantee machinery, including Lemma 1's large constants.
* :class:`WormsPolicy` — the practical variant: the *same* reduction and
  MPHTF priority order, but executed by the admission-gated executor
  instead of the Lemma 1 epoch construction.  Valid by construction,
  no constant-factor dilation, and what a production system would run.
"""

from __future__ import annotations

from typing import Callable

from repro.core.pipeline import solve_worms
from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.policies.base import Policy
from repro.policies.executor import execute_flush_list
from repro.scheduling.cost import TaskSchedule
from repro.scheduling.horn import compute_horn
from repro.scheduling.instance import SchedulingInstance
from repro.scheduling.mphtf import mphtf_schedule
from repro.scheduling.phtf import phtf_schedule


class WormsPolicy(Policy):
    """MPHTF flush order under the gated executor (practical variant).

    ``task_scheduler`` swaps the priority source (default MPHTF; PHTF or a
    baseline can be passed for ablations).
    """

    name = "worms"

    def __init__(
        self,
        task_scheduler: Callable[[SchedulingInstance], TaskSchedule] | None = None,
    ) -> None:
        self._task_scheduler = task_scheduler

    def schedule(self, instance: WORMSInstance) -> FlushSchedule:
        """Reduce, schedule tasks, and execute under the admission gate."""
        return execute_flush_list(instance, self.priority_order(instance))

    def priority_order(self, instance: WORMSInstance) -> "list[Flush]":
        """The Lemma 8 flush order, before the gate merges anything.

        Laminar (every flush's messages reached its source in one earlier
        flush), so a faulty replay through
        :class:`~repro.policies.resilient.ResilientExecutor` keeps the
        gate's no-deadlock guarantee; the merged realized schedule would
        not.
        """
        reduced = reduce_to_scheduling(instance)
        if self._task_scheduler is None:
            horn = compute_horn(reduced.scheduling)
            sigma = mphtf_schedule(reduced.scheduling, horn)
        else:
            sigma = self._task_scheduler(reduced.scheduling)
        overfilling = task_schedule_to_flush_schedule(reduced, sigma)
        return [flush for _t, flush in overfilling.iter_timed()]


class PhtfWormsPolicy(WormsPolicy):
    """Ablation: PHTF priorities instead of MPHTF under the executor."""

    name = "worms-phtf"

    def __init__(self) -> None:
        super().__init__(task_scheduler=phtf_schedule)


class PaperPipelinePolicy(Policy):
    """The literal end-to-end pipeline of Section 4.3 (with Lemma 1)."""

    name = "paper-pipeline"

    def schedule(self, instance: WORMSInstance) -> FlushSchedule:
        """Run the full Section 4.3 pipeline and return its schedule."""
        return solve_worms(instance).schedule
