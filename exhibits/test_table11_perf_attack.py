"""Exhibit: regenerate Table XI / Figure 12 (performance attack)."""

import pytest

from repro.experiments import table11
from repro.experiments.framework import render_experiment, \
    run_experiment


def test_table11_perf_attack():
    rows = run_experiment(table11.EXPERIMENT)
    by_window = {r.mint_window: r for r in rows}
    for window, (paper_tp, paper_sd) in table11.PAPER.items():
        row = by_window[window]
        assert row.relative_throughput_pct == pytest.approx(
            paper_tp, rel=0.1)
        assert row.slowdown_factor == pytest.approx(paper_sd, rel=0.1)
    # Narrower windows ALERT more often: worse under attack.
    assert by_window[8].slowdown_factor > \
        by_window[12].slowdown_factor > by_window[16].slowdown_factor
    # Comparable to ordinary memory-contention attacks (< 3x).
    assert all(r.slowdown_factor < 3.0 for r in rows)
    print()
    print(render_experiment(table11.EXPERIMENT, rows))


def test_fig12_attack_kernel_primes_the_region():
    """The Figure 12 kernel drives a live MIRZA instance into steady
    ALERT cadence: priming is fast and ALERTs are sustained."""
    import random

    from repro.core.config import MirzaConfig
    from repro.core.mirza import MirzaTracker
    from repro.dram.mapping import StridedR2SA
    from repro.params import SystemConfig
    from repro.security.attacks import SingleBankHarness

    def attack():
        system = SystemConfig()
        config = MirzaConfig.paper_config(1000)
        mapping = StridedR2SA(system.geometry)
        tracker = MirzaTracker(config, system.geometry, mapping,
                               random.Random(3))
        harness = SingleBankHarness(tracker, system)
        stride = system.geometry.subarrays_per_bank
        rows = [i * stride for i in range(8)]  # one RCT region
        total = 50_000
        for i in range(total):
            harness.activate(rows[i % 8])
        return harness, config, total

    harness, config, total = attack()
    priming = config.fth  # ACTs spent before the region saturates
    assert priming / total < 0.05  # <5% of the attack (paper: <1% of
    # tREFW)
    # Steady state: one selection per MINT window; the queue converts
    # between roughly half (selection jitter against a full queue) and
    # all of them into ALERTs.
    selections = (total - priming) / config.mint_window
    assert 0.4 * selections <= harness.alerts <= 1.1 * selections
