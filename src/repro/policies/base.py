"""The policy interface: a named strategy mapping instances to schedules."""

from __future__ import annotations

import abc

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule


class Policy(abc.ABC):
    """A flushing policy produces a *valid* schedule for a WORMS instance.

    Policies are stateless between calls; configuration goes through the
    constructor so a configured policy can be reused across a sweep.
    """

    #: short identifier used in bench tables.
    name: str = "policy"

    @abc.abstractmethod
    def schedule(self, instance: WORMSInstance) -> FlushSchedule:
        """Return a valid flush schedule completing every message."""

    def priority_order(self, instance: WORMSInstance) -> "list[Flush]":
        """The flush list to replay through an executor, in priority order.

        By default the realized schedule's flushes in time order.  A
        policy that plans a priority list and realizes it through the
        admission gate returns the *planned* list instead: that list is
        laminar, the gate's merged realization is not.
        """
        return [f for _t, f in self.schedule(instance).iter_timed()]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
