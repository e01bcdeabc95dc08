"""The Region Count Table: coarse-grained filtering with safe reset.

The RCT holds one saturating counter per *region* (a group of
physically-contiguous rows, one subarray by default).  Every activation
looks up its region's counter:

- counter <= FTH: the counter is incremented and the activation is
  **filtered** -- it does not participate in any mitigation (this is the
  case for >99% of benign activations under strided mapping);
- counter > FTH: the counter saturates and the activation **escapes**
  the filter, participating in MINT's probabilistic selection.

Counters must be reset once per refresh window, synchronised with the
demand-refresh sweep of the region.  Appendix B shows that resetting on
the *first* REF of the region (eager) or the *last* (lazy) both leak up
to ``2*(FTH-1)`` unfiltered activations; the safe policy copies the
counter into a Refreshed-Region-Counter (RRC) register when the region's
sweep begins, resets the table entry, mirrors updates into both, and
uses the RRC for the filtering decision while the sweep is in flight.
All three policies are implemented so the security tests can demonstrate
the gap (``benchmarks/test_ablation_rct_reset.py``).

Edge rule (Section VI-B footnote): when the region size is smaller than
a subarray, an activation to a row at a region boundary also increments
the neighbouring region's counter, so a victim row at the edge cannot
have its two aggressors tracked by two different half-full counters.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from repro.dram.refresh import RefreshSlice
from repro.obs.observation import current as _observation
from repro.params import DramGeometry


class ResetPolicy(enum.Enum):
    """When the RCT entry of a region under refresh gets reset."""

    SAFE = "safe"
    EAGER = "eager"
    LAZY = "lazy"


class RegionCountTable:
    """Per-region saturating activation counters with FTH filtering."""

    __slots__ = ("num_regions", "fth", "geometry", "reset_policy",
                 "region_size", "_counters", "_rrc", "_refreshing_region",
                 "filtered_acts", "escaped_acts", "_edge_possible",
                 "_m_filtered", "_m_escaped", "_m_resets")

    def __init__(self, num_regions: int, fth: int,
                 geometry: DramGeometry = DramGeometry(),
                 reset_policy: ResetPolicy = ResetPolicy.SAFE) -> None:
        if num_regions < 1:
            raise ValueError("need at least one region")
        if geometry.rows_per_bank % num_regions:
            raise ValueError("num_regions must divide rows_per_bank")
        if fth < 0:
            raise ValueError("FTH must be non-negative")
        self.num_regions = num_regions
        self.fth = fth
        self.geometry = geometry
        self.reset_policy = reset_policy
        self.region_size = geometry.rows_per_bank // num_regions
        self._counters: List[int] = [0] * num_regions
        self._rrc: int = 0
        self._edge_possible = self.region_size < geometry.rows_per_subarray
        self._refreshing_region: Optional[int] = None
        self.filtered_acts = 0
        self.escaped_acts = 0
        reg = _observation().metrics
        if reg is not None:
            self._m_filtered = reg.counter("rct.filtered")
            self._m_escaped = reg.counter("rct.escaped")
            self._m_resets = reg.counter("rct.resets")
        else:
            self._m_filtered = self._m_escaped = self._m_resets = None

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def region_of(self, physical_row: int) -> int:
        """Region index of a bank-local physical row index."""
        return physical_row // self.region_size

    def _edge_neighbor_region(self, physical_row: int) -> Optional[int]:
        """Region sharing a blast radius with ``physical_row``, if any.

        Only region boundaries *inside* a subarray matter: subarrays are
        electrically isolated, so a boundary aligned with a subarray edge
        cannot be hammered across.
        """
        if self.region_size >= self.geometry.rows_per_subarray:
            return None
        offset = physical_row % self.region_size
        region = self.region_of(physical_row)
        pos_in_sa = physical_row % self.geometry.rows_per_subarray
        if offset == 0 and pos_in_sa != 0:
            return region - 1
        last = self.region_size - 1
        if offset == last and pos_in_sa != self.geometry.rows_per_subarray - 1:
            return region + 1
        return None

    # ------------------------------------------------------------------
    # Counter access
    # ------------------------------------------------------------------
    def count(self, region: int) -> int:
        """Effective counter used for the filtering decision."""
        if (self.reset_policy is ResetPolicy.SAFE
                and region == self._refreshing_region):
            return self._rrc
        return self._counters[region]

    def _bump(self, region: int) -> None:
        """Increment a region counter, saturating at FTH + 1."""
        if self._counters[region] <= self.fth:
            self._counters[region] += 1
        if (self.reset_policy is ResetPolicy.SAFE
                and region == self._refreshing_region
                and self._rrc <= self.fth):
            self._rrc += 1

    def on_activate(self, physical_row: int) -> bool:
        """Record an ACT; return True iff it escapes the filter.

        An escaping activation participates in MINT selection; a filtered
        one needs no mitigation at all.
        """
        region = physical_row // self.region_size
        escaped = self.count(region) > self.fth
        self._bump(region)
        if self._edge_possible:
            neighbor = self._edge_neighbor_region(physical_row)
            if neighbor is not None and 0 <= neighbor < self.num_regions:
                self._bump(neighbor)
        if escaped:
            self.escaped_acts += 1
            counter = self._m_escaped
        else:
            self.filtered_acts += 1
            counter = self._m_filtered
        if counter is not None:
            counter.value += 1
        return escaped

    def on_activates(self, physical_rows: Sequence[int]) -> List[bool]:
        """Record a run of ACTs; return each one's escape decision.

        REF slices bound every deferred run, so the reset state machine
        cannot advance mid-run; when no edge bumping applies and no SAFE
        sweep is in flight, the filtering decision reduces to plain
        per-region counters and the whole run is processed in one tight
        loop.  Otherwise each ACT takes the full :meth:`on_activate`
        path, preserving bit-identity in the exotic configurations.
        """
        if self._edge_possible or (self.reset_policy is ResetPolicy.SAFE
                                   and self._refreshing_region is not None):
            on_activate = self.on_activate
            return [on_activate(p) for p in physical_rows]
        counters = self._counters
        fth = self.fth
        size = self.region_size
        out: List[bool] = []
        append = out.append
        escaped_n = 0
        for physical_row in physical_rows:
            region = physical_row // size
            count = counters[region]
            if count > fth:
                append(True)
                escaped_n += 1
            else:
                counters[region] = count + 1
                append(False)
        filtered_n = len(out) - escaped_n
        self.escaped_acts += escaped_n
        self.filtered_acts += filtered_n
        counter = self._m_escaped
        if counter is not None:
            counter.value += escaped_n
            self._m_filtered.value += filtered_n
        return out

    # ------------------------------------------------------------------
    # Refresh-synchronised reset
    # ------------------------------------------------------------------
    def on_ref_slice(self, slice_: RefreshSlice) -> None:
        """Advance the reset state machine with one REF's sweep slice."""
        start_region = self.region_of(slice_.physical_start)
        end_region = self.region_of(slice_.physical_end - 1)
        for region in range(start_region, end_region + 1):
            first = region * self.region_size
            last = first + self.region_size  # exclusive
            begins = slice_.physical_start <= first < slice_.physical_end
            ends = slice_.physical_start < last <= slice_.physical_end
            reset = False
            if self.reset_policy is ResetPolicy.EAGER:
                if begins:
                    self._counters[region] = 0
                    reset = True
            elif self.reset_policy is ResetPolicy.LAZY:
                if ends:
                    self._counters[region] = 0
                    reset = True
            else:  # SAFE
                if begins:
                    self._rrc = self._counters[region]
                    self._counters[region] = 0
                    self._refreshing_region = region
                    reset = True
                if ends and self._refreshing_region == region:
                    self._refreshing_region = None
            if reset and self._m_resets is not None:
                self._m_resets.value += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def counter_bits(self) -> int:
        """Bits per counter: enough to hold the saturation value FTH+1."""
        return max(1, (self.fth + 1).bit_length())

    def storage_bits(self) -> int:
        """Table bits plus the RRC register."""
        return self.num_regions * self.counter_bits + self.counter_bits

    def escape_fraction(self) -> float:
        """Fraction of observed ACTs that escaped the filter."""
        total = self.filtered_acts + self.escaped_acts
        return self.escaped_acts / total if total else 0.0
