"""The per-bank tracker interface every mitigation implements.

A tracker observes the activations of *its* bank and decides which
aggressor rows to mitigate and when.  Mitigation time arrives through
three channels (Figure 1a of the paper):

``REF``
    Proactive: the tracker borrows time from a demand refresh
    (*refresh cannibalisation*).  TRR and classic MINT work this way.
``RFM``
    Proactive: the memory controller counts activations per bank and
    stalls the bank at a fixed cadence (Section II-F).
``ALERT``
    Reactive: the tracker raises :meth:`BankTracker.wants_alert`, the
    device asserts ALERT, and the controller stalls the channel
    (Section II-G).  PRAC and MIRZA work this way.

Trackers never touch the DRAM arrays themselves; they *return* the rows
to mitigate and the :class:`repro.dram.device.DramDevice` performs the
victim refreshes (and informs the ground-truth oracle).
"""

from __future__ import annotations

import abc
import enum
from typing import List, Sequence

from repro.dram.refresh import RefreshSlice

UNBOUNDED_SLACK = 1 << 60
"""Sentinel slack for trackers that can never request an ALERT."""


class MitigationSlotSource(enum.Enum):
    """Where the time for a mitigation slot came from."""

    REF = "ref"
    RFM = "rfm"
    ALERT = "alert"


class BankTracker(abc.ABC):
    """Abstract per-bank Rowhammer tracker."""

    __slots__ = ()

    name: str = "abstract"

    @abc.abstractmethod
    def on_activate(self, row: int, now_ps: int) -> None:
        """Observe an activation of ``row`` at time ``now_ps``."""

    def on_activates(self, rows: Sequence[int],
                     times: Sequence[int]) -> None:
        """Observe a run of activations (array-backend bulk path).

        The default replays :meth:`on_activate` entry-at-a-time, so any
        tracker is bulk-safe by construction; hot trackers override this
        with a loop-free (or attribute-hoisted) equivalent that leaves
        *identical* final state, metric counts, and RNG consumption.
        """
        on_activate = self.on_activate
        for row, now_ps in zip(rows, times):
            on_activate(row, now_ps)

    def wants_alert(self) -> bool:
        """True if the tracker needs the channel to assert ALERT now.

        Proactive trackers never request ALERT; the default is ``False``.
        """
        return False

    def alert_slack(self) -> int:
        """Lower bound on future ACTs before ``wants_alert`` can flip.

        Returns ``k >= 1`` guaranteeing that :meth:`wants_alert` cannot
        become True before this bank's *k*-th future :meth:`on_activate`
        call; the array backend defers tracker updates and re-polls only
        at that horizon.  Trackers that never alert should return
        :data:`UNBOUNDED_SLACK`; the conservative default of 1
        degenerates to the event backend's poll-every-ACT behaviour and
        is always correct.
        """
        if type(self).wants_alert is BankTracker.wants_alert:
            return UNBOUNDED_SLACK
        return 1

    def on_mitigation_slot(self, now_ps: int,
                           source: MitigationSlotSource) -> List[int]:
        """Mitigation time is available; return aggressor rows to mitigate.

        Called once per REF (for REF-paced trackers), once per RFM, and
        once per ALERT service.  Returning an empty list wastes the slot.
        """
        return []

    def on_ref_slice(self, slice_: RefreshSlice, now_ps: int) -> None:
        """A REF refreshed ``slice_`` of this bank (for state resets)."""

    def storage_bits(self) -> int:
        """SRAM bits this tracker needs per bank (for the area tables)."""
        return 0

    @property
    def storage_bytes(self) -> float:
        """SRAM bytes per bank."""
        return self.storage_bits() / 8.0
