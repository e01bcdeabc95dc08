"""Bank state and the ground-truth per-row activation oracle.

The :class:`RowActivationOracle` is the reproduction's *verification*
mechanism: it counts, for every row, the activations received since that
row was last refreshed (demand refresh) or mitigated (victim refresh of
its neighbours).  The paper's attack-success criterion (Section II-A) is
"any row receives more than the threshold number of activations without
any intervening mitigation or refresh", which is exactly what
:meth:`RowActivationOracle.max_unmitigated` exposes.

The oracle is **not** part of any defence -- defences only see what their
own structures record.  Security tests drive attacks against a defence
and then ask the oracle whether the attack ever succeeded.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.dram.mapping import RowToSubarrayMapping, SequentialR2SA
from repro.obs.observation import current as _observation
from repro.params import DramGeometry


class RowActivationOracle:
    """Ground truth: unmitigated activation counts per (logical) row."""

    __slots__ = ("geometry", "mapping", "_counts", "_max_seen", "_max_row")

    def __init__(self, geometry: DramGeometry = DramGeometry(),
                 mapping: Optional[RowToSubarrayMapping] = None) -> None:
        self.geometry = geometry
        self.mapping = mapping if mapping is not None else SequentialR2SA(
            geometry)
        self._counts: Dict[int, int] = {}
        self._max_seen = 0
        self._max_row: Optional[int] = None

    def on_activate(self, row: int) -> int:
        """Record one activation of ``row``; return its running count."""
        count = self._counts.get(row, 0) + 1
        self._counts[row] = count
        if count > self._max_seen:
            self._max_seen = count
            self._max_row = row
        return count

    def on_activates(self, rows: Sequence[int]) -> None:
        """Record a run of activations (bulk form of :meth:`on_activate`).

        Increments apply in arrival order, so the running max (and the
        row that reached it) land exactly as entry-at-a-time counting
        would leave them.
        """
        counts = self._counts
        get = counts.get
        max_seen = self._max_seen
        max_row = self._max_row
        for row in rows:
            count = get(row, 0) + 1
            counts[row] = count
            if count > max_seen:
                max_seen = count
                max_row = row
        self._max_seen = max_seen
        self._max_row = max_row

    def on_row_refreshed(self, row: int) -> None:
        """Demand refresh of ``row`` resets its unmitigated count."""
        self._counts.pop(row, None)

    def on_rows_refreshed(self, rows: Iterable[int]) -> None:
        """Demand refresh of several rows at once.

        A REF slice covers thousands of rows while the oracle tracks
        counts only for the handful of rows activated since their last
        refresh, so when ``rows`` supports O(1) membership tests the
        intersection is walked from the (small) counts side instead of
        popping every swept row individually.
        """
        counts = self._counts
        if isinstance(rows, (set, frozenset)) and len(counts) < len(rows):
            for row in [r for r in counts if r in rows]:
                del counts[row]
            return
        for row in rows:
            counts.pop(row, None)

    def on_mitigation(self, aggressor_row: int, blast_radius: int = 2
                      ) -> None:
        """Victim refresh of ``aggressor_row``'s neighbours.

        Refreshing the victims nullifies the disturbance the aggressor has
        accumulated against them, so the aggressor's unmitigated count
        resets.  The victims' own aggressor potential is unaffected (their
        cells were refreshed, not their neighbours').
        """
        self._counts.pop(aggressor_row, None)

    def count(self, row: int) -> int:
        """Current unmitigated activation count of ``row``."""
        return self._counts.get(row, 0)

    @property
    def max_unmitigated(self) -> int:
        """Highest unmitigated count any row has *ever* reached."""
        return self._max_seen

    @property
    def max_row(self) -> Optional[int]:
        """The row that reached :attr:`max_unmitigated` (None if none)."""
        return self._max_row

    def current_max(self) -> int:
        """Highest unmitigated count among rows *right now*."""
        return max(self._counts.values(), default=0)

    def attack_succeeded(self, threshold: int) -> bool:
        """True if any row ever exceeded ``threshold`` unmitigated ACTs."""
        return self._max_seen > threshold


class Bank:
    """Per-bank DRAM state: open row, activation bookkeeping, oracle."""

    __slots__ = ("bank_id", "geometry", "mapping", "open_row", "oracle",
                 "total_activations", "total_mitigations",
                 "victim_rows_refreshed", "_rows_per_bank",
                 "_m_acts", "_m_refs")

    def __init__(self, bank_id: int,
                 geometry: DramGeometry = DramGeometry(),
                 mapping: Optional[RowToSubarrayMapping] = None,
                 subch: int = 0) -> None:
        self.bank_id = bank_id
        self.geometry = geometry
        self.mapping = mapping if mapping is not None else SequentialR2SA(
            geometry)
        self.open_row: Optional[int] = None
        self.oracle = RowActivationOracle(geometry, self.mapping)
        self.total_activations = 0
        self.total_mitigations = 0
        self.victim_rows_refreshed = 0
        self._rows_per_bank = geometry.rows_per_bank
        # Observability binds at construction: per-bank ACT/REF counters
        # are prefetched so the off path is a single None check.
        reg = _observation().metrics
        self._m_acts = reg.counter("dram.bank.acts", subch, bank_id) \
            if reg is not None else None
        self._m_refs = reg.counter("dram.bank.refs", subch, bank_id) \
            if reg is not None else None

    def activate(self, row: int) -> None:
        """Open ``row`` (the caller has already enforced timing)."""
        if not 0 <= row < self._rows_per_bank:
            raise ValueError(
                f"row {row} out of range for bank with "
                f"{self.geometry.rows_per_bank} rows")
        self.open_row = row
        self.total_activations += 1
        self.oracle.on_activate(row)
        counter = self._m_acts
        if counter is not None:
            counter.value += 1

    def activate_many(self, rows: Sequence[int]) -> None:
        """Open each row of a deferred run in order (bulk activate).

        Equivalent to calling :meth:`activate` per row, except that an
        out-of-range row is reported before any of the run is applied
        (the array backend validates eagerly; arrival order within a
        valid run is preserved everywhere it matters).
        """
        if not rows:
            return
        if not 0 <= min(rows) <= max(rows) < self._rows_per_bank:
            bad = next(r for r in rows
                       if not 0 <= r < self._rows_per_bank)
            raise ValueError(
                f"row {bad} out of range for bank with "
                f"{self.geometry.rows_per_bank} rows")
        self.open_row = rows[-1]
        self.total_activations += len(rows)
        self.oracle.on_activates(rows)
        counter = self._m_acts
        if counter is not None:
            counter.value += len(rows)

    def precharge(self) -> None:
        """Close the open row (idempotent)."""
        self.open_row = None

    def mitigate(self, aggressor_row: int, blast_radius: int = 2) -> int:
        """Refresh the victims of ``aggressor_row``; return victim count."""
        if not 0 <= aggressor_row < self.geometry.rows_per_bank:
            raise ValueError(
                f"cannot mitigate row {aggressor_row}: bank has "
                f"{self.geometry.rows_per_bank} rows")
        victims = self.mapping.physical_neighbors(aggressor_row, blast_radius)
        self.oracle.on_mitigation(aggressor_row, blast_radius)
        self.total_mitigations += 1
        self.victim_rows_refreshed += len(victims)
        return len(victims)

    def refresh_rows(self, rows: Iterable[int]) -> None:
        """Demand-refresh ``rows`` (driven by the refresh scheduler)."""
        self.oracle.on_rows_refreshed(rows)
        counter = self._m_refs
        if counter is not None:
            counter.value += 1
