"""Seeded randomized equivalence of every bulk (deferred-run) path.

The array backend lands buffered ACT runs through list-based bulk
methods (``on_activates``, ``observe_many``, ``activate_many``).  Each
test drives identical random ACT streams through a component's
per-event loop and through its bulk path and demands exact state
equality -- the unit-level half of the array backend's bit-identity
contract (the system-level half is the 13-mitigation sweep in
``test_backend.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import MirzaConfig
from repro.core.mint import MintSampler
from repro.core.mirza import MirzaTracker
from repro.core.rct import RegionCountTable, ResetPolicy
from repro.dram.bank import Bank, RowActivationOracle
from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.dram.refresh import RefreshSlice
from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.mint_rfm import MintTracker
from repro.mitigations.prac import PracTracker
from repro.params import DramGeometry


def _random_runs(seed: int, runs: int, run_len, row_space: int,
                 hot_rows: int = 8, hot_fraction: float = 0.6):
    """Random ACT runs mixing a hot set (attack-like) with cold rows."""
    rng = random.Random(seed)
    hot = [rng.randrange(row_space) for _ in range(hot_rows)]
    out = []
    for _ in range(runs):
        n = run_len if isinstance(run_len, int) \
            else rng.randrange(*run_len)
        run = [hot[rng.randrange(hot_rows)]
               if rng.random() < hot_fraction
               else rng.randrange(row_space)
               for _ in range(n)]
        out.append(run)
    return out


# ----------------------------------------------------------------------
# PRAC counters
# ----------------------------------------------------------------------
def _prac_state(t: PracTracker):
    return (t._counters, t._over_threshold, t._max_count,
            t.alert_slack(), t.wants_alert())


@pytest.mark.parametrize("seed", range(5))
def test_prac_bulk_path_matches_scalar(seed):
    scalar = PracTracker(200)
    bulk = PracTracker(200)
    for i, run in enumerate(_random_runs(seed, 12, (1, 400), 512)):
        for row in run:
            scalar.on_activate(row, now_ps=0)
        bulk.on_activates(run, [0] * len(run))
        assert _prac_state(scalar) == _prac_state(bulk)
        # Interleave the mitigation/REF events that reset counters.
        if i % 3 == 0:
            assert (scalar.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT)
                    == bulk.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT))
        if i % 4 == 0:
            slice_ = RefreshSlice(ref_index=i, physical_start=0,
                                  physical_end=64,
                                  logical_rows=list(range(64)))
            scalar.on_ref_slice(slice_, now_ps=0)
            bulk.on_ref_slice(slice_, now_ps=0)
        assert _prac_state(scalar) == _prac_state(bulk)


# ----------------------------------------------------------------------
# MINT sampler
# ----------------------------------------------------------------------
def _sampler_state(s: MintSampler):
    return (s._position, s._target, s.windows_completed, s.observed,
            s.selected)


@pytest.mark.parametrize("seed", range(5))
def test_mint_observe_many_matches_observe(seed):
    scalar = MintSampler(48, rng=random.Random(seed))
    bulk = MintSampler(48, rng=random.Random(seed))
    for run in _random_runs(seed, 20, (1, 200), 4096):
        expected = [r for r in run if scalar.observe(r) is not None]
        assert bulk.observe_many(run) == expected
        assert _sampler_state(scalar) == _sampler_state(bulk)


# ----------------------------------------------------------------------
# RCT escape decisions
# ----------------------------------------------------------------------
def _rct_state(t: RegionCountTable):
    return (t._counters, t._rrc, t._refreshing_region,
            t.filtered_acts, t.escaped_acts)


def _assert_rct_bulk_matches_scalar(scalar, bulk, runs):
    for run in runs:
        expected = [scalar.on_activate(p) for p in run]
        assert bulk.on_activates(run) == expected
        assert _rct_state(scalar) == _rct_state(bulk)


@pytest.mark.parametrize("seed", range(5))
def test_rct_bulk_path_matches_scalar(seed):
    geometry = DramGeometry()
    _assert_rct_bulk_matches_scalar(
        RegionCountTable(128, 32, geometry),
        RegionCountTable(128, 32, geometry),
        _random_runs(seed, 12, (1, 500), geometry.rows_per_bank))


def test_rct_bulk_path_matches_scalar_with_edge_regions():
    """Sub-subarray regions need edge bumping, which the bulk path
    delegates to the per-ACT rule."""
    geometry = DramGeometry()
    assert geometry.rows_per_bank // 256 < geometry.rows_per_subarray
    _assert_rct_bulk_matches_scalar(
        RegionCountTable(256, 32, geometry),
        RegionCountTable(256, 32, geometry),
        _random_runs(1, 8, (1, 300), geometry.rows_per_bank))


def test_rct_bulk_path_matches_scalar_during_safe_sweep():
    geometry = DramGeometry()

    def build():
        rct = RegionCountTable(128, 32, geometry,
                               reset_policy=ResetPolicy.SAFE)
        # A slice that begins (but does not finish) region 0's sweep.
        rct.on_ref_slice(RefreshSlice(ref_index=0, physical_start=0,
                                      physical_end=10,
                                      logical_rows=list(range(10))))
        assert rct._refreshing_region == 0
        return rct

    _assert_rct_bulk_matches_scalar(
        build(), build(), _random_runs(2, 8, (1, 300), 2048))


# ----------------------------------------------------------------------
# Row-to-subarray mappings and refresh slices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mapping_cls", [SequentialR2SA, StridedR2SA])
def test_mapping_bulk_views_match_scalar(mapping_cls):
    geometry = DramGeometry()
    mapping = mapping_cls(geometry)
    rng = random.Random(3)
    rows = [rng.randrange(geometry.rows_per_bank) for _ in range(500)]
    assert (mapping.physical_indices(rows)
            == [mapping.physical_index(r) for r in rows])
    start, end = 8192, 8192 + 1024
    assert (mapping.logical_rows(start, end)
            == [mapping.logical_row(p) for p in range(start, end)])


def test_refresh_slice_row_set_matches_logical_rows():
    slice_ = RefreshSlice(ref_index=0, physical_start=0, physical_end=8,
                          logical_rows=[5, 1, 9, 2, 5, 0, 7, 3])
    assert slice_.row_set() == frozenset(slice_.logical_rows)
    assert slice_.row_set() is slice_.row_set()  # cached


# ----------------------------------------------------------------------
# Oracle (and Bank bulk activate)
# ----------------------------------------------------------------------
def _oracle_state(o: RowActivationOracle):
    return (o._counts, o.max_unmitigated, o.max_row)


@pytest.mark.parametrize("seed", range(5))
def test_oracle_bulk_path_matches_scalar(seed):
    scalar = RowActivationOracle()
    bulk = RowActivationOracle()
    for i, run in enumerate(_random_runs(seed, 12, (1, 300), 256)):
        for row in run:
            scalar.on_activate(row)
        bulk.on_activates(run)
        assert _oracle_state(scalar) == _oracle_state(bulk)
        if i % 3 == 0:
            swept = frozenset(range(0, 128))
            scalar.on_rows_refreshed(swept)
            bulk.on_rows_refreshed(swept)
            assert _oracle_state(scalar) == _oracle_state(bulk)


def test_oracle_bulk_path_max_row_tie_breaks_by_arrival():
    """Rows 1 and 2 both finish at count 3; row 1 got there first."""
    scalar = RowActivationOracle()
    bulk = RowActivationOracle()
    rows = [1, 1, 2, 2, 1, 2]
    for row in rows:
        scalar.on_activate(row)
    bulk.on_activates(rows)
    assert _oracle_state(scalar) == _oracle_state(bulk)
    assert bulk.max_row == 1


def test_bank_activate_many_matches_scalar():
    scalar = Bank(0)
    bulk = Bank(0)
    rows = [7, 7, 9, 7, 12, 9]
    for row in rows:
        scalar.activate(row)
    bulk.activate_many(rows)
    assert scalar.open_row == bulk.open_row == 9
    assert scalar.total_activations == bulk.total_activations
    assert _oracle_state(scalar.oracle) == _oracle_state(bulk.oracle)


def test_bank_activate_many_validates_eagerly():
    bank = Bank(0)
    with pytest.raises(ValueError, match="out of range"):
        bank.activate_many([1, 2, bank.geometry.rows_per_bank])
    assert bank.total_activations == 0
    assert bank.oracle.max_unmitigated == 0


# ----------------------------------------------------------------------
# MINT tracker (DMQ) and the full MIRZA tracker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_mint_tracker_bulk_path_matches_scalar(seed):
    scalar = MintTracker(24, dmq_entries=2, rng=random.Random(seed))
    bulk = MintTracker(24, dmq_entries=2, rng=random.Random(seed))
    for i, run in enumerate(_random_runs(seed, 10, (1, 200), 1024)):
        for row in run:
            scalar.on_activate(row, now_ps=0)
        bulk.on_activates(run, [0] * len(run))
        assert scalar._pending == bulk._pending
        assert scalar.dropped_selections == bulk.dropped_selections
        if i % 2 == 0:
            assert (scalar.on_mitigation_slot(0, MitigationSlotSource.RFM)
                    == bulk.on_mitigation_slot(
                        0, MitigationSlotSource.RFM))


def _mirza_state(t: MirzaTracker):
    return (dict(t.queue._entries), t.rct._counters, t.acts_observed,
            _sampler_state(t.mint), t.rct.filtered_acts,
            t.rct.escaped_acts, t.wants_alert())


@pytest.mark.parametrize("seed", range(3))
def test_mirza_tracker_bulk_path_matches_scalar(seed):
    config = MirzaConfig.paper_config(1000).scaled(2048)
    geometry = DramGeometry()
    mapping = StridedR2SA(geometry)

    def build():
        return MirzaTracker(config, geometry, mapping,
                            rng=random.Random(seed))

    scalar, bulk = build(), build()
    runs = _random_runs(seed, 15, (1, 400), geometry.rows_per_bank,
                        hot_rows=4, hot_fraction=0.8)
    for i, run in enumerate(runs):
        times = list(range(len(run)))
        for row, now_ps in zip(run, times):
            scalar.on_activate(row, now_ps)
        bulk.on_activates(run, times)
        assert _mirza_state(scalar) == _mirza_state(bulk)
        if i % 3 == 0:
            assert (scalar.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT)
                    == bulk.on_mitigation_slot(
                        0, MitigationSlotSource.ALERT))
        if i % 4 == 0:
            slice_ = RefreshSlice(
                ref_index=i, physical_start=0, physical_end=1024,
                logical_rows=mapping.logical_rows(0, 1024))
            scalar.on_ref_slice(slice_, now_ps=0)
            bulk.on_ref_slice(slice_, now_ps=0)
        assert _mirza_state(scalar) == _mirza_state(bulk)
