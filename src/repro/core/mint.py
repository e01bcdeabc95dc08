"""MINT: the Minimalist In-DRAM Tracker's window sampler (Figure 2).

MINT operates on a window of ``W`` activations.  At the start of each
window it draws one index uniformly at random from ``[0, W)``; the
activation arriving at that index is *selected* for mitigation.  Exactly
one activation is selected per window, so an attacker hammering a row
``d`` times within a window escapes selection with probability
``1 - d/W`` -- the quantity the security model in
:mod:`repro.security.mint_model` is built on.

The sampler is deliberately tiny: a position counter and a target index.
That is the entire per-bank tracking state of MINT, which is why it
needs only a single entry of storage.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.obs.observation import current as _observation


class MintSampler:
    """Selects one of every ``window`` observed activations at random."""

    __slots__ = ("window", "rng", "_position", "_target",
                 "windows_completed", "observed", "selected",
                 "_m_observed", "_m_selected")

    def __init__(self, window: int, rng: Optional[random.Random] = None
                 ) -> None:
        if window < 1:
            raise ValueError("MINT window must be at least 1")
        self.window = window
        self.rng = rng if rng is not None else random.Random(0)
        self._position = 0
        self._target = self.rng.randrange(self.window)
        self.windows_completed = 0
        self.observed = 0
        self.selected = 0
        reg = _observation().metrics
        if reg is not None:
            self._m_observed = reg.counter("mint.observed")
            self._m_selected = reg.counter("mint.selected")
        else:
            self._m_observed = self._m_selected = None

    def observe(self, row: int) -> Optional[int]:
        """Observe one activation; return ``row`` iff it was selected.

        The caller receives the selected row *at the moment of the
        selected activation* -- in MIRZA the row is enqueued immediately
        (Section V-A); in classic MINT the caller holds it until the next
        mitigation opportunity.
        """
        self.observed += 1
        counter = self._m_observed
        if counter is not None:
            counter.value += 1
        picked = None
        if self._position == self._target:
            picked = row
            self.selected += 1
            counter = self._m_selected
            if counter is not None:
                counter.value += 1
        self._position += 1
        if self._position == self.window:
            self._position = 0
            self._target = self.rng.randrange(self.window)
            self.windows_completed += 1
        return picked

    def observe_many(self, rows: Sequence[int]) -> List[int]:
        """Observe a run of activations; return the selected rows in order.

        Bit-identical to calling :meth:`observe` per entry -- the same
        selections fall out, ``windows_completed`` advances identically,
        and exactly one ``randrange`` is drawn per completed window in
        the same sequence -- but window boundaries are skipped over
        arithmetically instead of counted one ACT at a time.  ``rows``
        may be any indexable sequence (the closed-form sweep only
        measures and indexes it).
        """
        n = len(rows)
        if n == 0:
            return []
        self.observed += n
        counter = self._m_observed
        if counter is not None:
            counter.value += n
        picked: List[int] = []
        pos = self._position
        target = self._target
        window = self.window
        randrange = self.rng.randrange
        i = 0
        while i < n:
            remaining = window - pos
            if target >= pos:
                idx = i + (target - pos)
                if idx < n:
                    picked.append(int(rows[idx]))
            if remaining <= n - i:
                i += remaining
                pos = 0
                target = randrange(window)
                self.windows_completed += 1
            else:
                pos += n - i
                break
        self._position = pos
        self._target = target
        if picked:
            self.selected += len(picked)
            counter = self._m_selected
            if counter is not None:
                counter.value += len(picked)
        return picked

    def acts_until_nth_selection(self, n: int) -> int:
        """Earliest future observation (1-based) that can be the ``n``-th
        selection.

        A lower bound: the current window's pending target is exact, but
        later windows assume their random target lands on the first slot.
        Used by the array backend to bound how long MIRZA's queue can go
        unpolled.
        """
        if n <= 0:
            return 0
        window = self.window
        to_window_end = window - self._position
        if self._target >= self._position:
            if n == 1:
                return self._target - self._position + 1
            return to_window_end + (n - 2) * window + 1
        return to_window_end + (n - 1) * window + 1

    @property
    def selection_probability(self) -> float:
        """Long-run probability that any given activation is selected."""
        return 1.0 / self.window

    def storage_bits(self, row_bits: int = 17) -> int:
        """Tracking state: one row id plus the position/target counters."""
        window_bits = max(1, (self.window - 1).bit_length())
        return row_bits + 2 * window_bits
