"""ALERT-Back-Off: stall windows and the ABO protocol state machine.

Figure 4: when the DRAM asserts ALERT at time ``t``, the controller may
keep operating normally during the *prologue* ``[t, t + 180ns)``, must
stall the whole channel during ``[t + 180ns, t + 530ns)`` while the
device mitigates, and must issue at least one activation before the
device may assert ALERT again (the *epilogue* ACT).

The stall discipline is what lets an attacker land a few more ACTs on a
queued row (Phase D of the security analysis): the reproduction models
it exactly, so the ``Q+7`` worst case of Figure 10 is *observable* in
simulation rather than assumed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs.observation import current as _observation
from repro.params import AboTimings


class StallWindows:
    """Sorted channel-wide blackout intervals with skip-ahead queries.

    Commands may issue at any instant not covered by a window; a command
    landing inside a window slides to the window's end.  Windows are
    appended in (mostly) increasing order; overlaps are merged lazily.
    """

    __slots__ = ("_windows", "total_stall")

    def __init__(self) -> None:
        self._windows: List[Tuple[int, int]] = []
        self.total_stall = 0

    def add(self, start: int, end: int) -> None:
        """Register a stall window [start, end), merging overlaps."""
        if end <= start:
            return
        self.total_stall += end - start
        if self._windows and start <= self._windows[-1][1]:
            last_start, last_end = self._windows[-1]
            merged = (min(last_start, start), max(last_end, end))
            self.total_stall -= max(
                0, min(last_end, end) - max(last_start, start))
            self._windows[-1] = merged
        else:
            self._windows.append((start, end))

    def adjust(self, t: int) -> int:
        """Earliest instant >= ``t`` outside every stall window."""
        windows = self._windows
        # Fast path: no stall has ever been recorded (the common case --
        # baseline and proactive setups never ALERT), or the newest
        # window already ended before ``t``.
        if not windows or t >= windows[-1][1]:
            return t
        # Walk from the end: recent windows are the relevant ones.
        for start, end in reversed(windows):
            if t >= end:
                return t
            if t >= start:
                return end
        return t

    def drop_before(self, t: int) -> None:
        """Garbage-collect windows fully in the past (keeps scans O(1))."""
        keep = [(s, e) for (s, e) in self._windows if e > t]
        self._windows = keep

    @property
    def windows(self) -> List[Tuple[int, int]]:
        return list(self._windows)


class AboEngine:
    """Controller-side ABO protocol handling for one subchannel."""

    __slots__ = ("abo", "stalls", "alerts_asserted", "_acts_since_alert",
                 "_last_stall_end", "_reg")

    def __init__(self, abo: AboTimings = AboTimings()) -> None:
        self.abo = abo
        self.stalls = StallWindows()
        self.alerts_asserted = 0
        self._acts_since_alert = 1  # allow the very first ALERT
        self._last_stall_end = -(10 ** 18)
        reg = self._reg = _observation().metrics
        if reg is not None:
            # Pre-register so the stats table shows zeros for runs
            # that never ALERT (assert_alert keeps the rare-path
            # lookup and needs no prefetched slots).
            reg.counter("abo.alerts")
            reg.counter("abo.stall_ps")

    def on_activate(self) -> None:
        """Record an ACT (epilogue bookkeeping)."""
        self._acts_since_alert += 1

    def can_assert(self, now: int) -> bool:
        """ALERT needs one ACT since the previous one and no open stall."""
        return (self._acts_since_alert >= self.abo.epilogue_acts
                and now >= self._last_stall_end)

    def assert_alert(self, now: int) -> Tuple[int, int]:
        """Assert ALERT at ``now``; returns (stall_start, stall_end).

        The caller must service the device's mitigation at stall time
        and treat ``stall_end`` as the earliest next command slot.
        With ``rfms_per_alert > 1`` the stall covers every RFM issued
        back to back.
        """
        stall_start = now + self.abo.prologue
        stall_end = stall_start + self.abo.total_stall
        self.stalls.add(stall_start, stall_end)
        self.alerts_asserted += 1
        self._acts_since_alert = 0
        self._last_stall_end = stall_end
        reg = self._reg
        if reg is not None:
            # ALERTs are rare (tens per billion ACTs); a registry lookup
            # here is cheaper than two prefetched slots on every engine.
            reg.counter("abo.alerts").value += 1
            reg.counter("abo.stall_ps").value += stall_end - stall_start
        return stall_start, stall_end

    def maybe_assert(self, pending: bool, now: int
                     ) -> Optional[Tuple[int, int]]:
        """Assert iff the device wants an ALERT and the protocol allows."""
        if pending and self.can_assert(now):
            return self.assert_alert(now)
        return None
