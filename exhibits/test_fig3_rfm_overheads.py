"""Exhibit: regenerate Figure 3 (MINT+RFM vs PRAC overheads)."""

from conftest import TIMED_SCALE, WORKLOADS

from repro.experiments import fig3
from repro.experiments.framework import Context, run_experiment
from repro.sim.session import SimSession


def test_fig3_rfm_overheads():
    result = run_experiment(
        fig3.EXPERIMENT,
        Context.make(workloads=WORKLOADS, scale=TIMED_SCALE),
        session=SimSession(disk_cache=False))
    # Shape: MINT+RFM overheads shrink as the threshold relaxes.
    assert result.mint_slowdown[500] > result.mint_slowdown[1000] \
        > result.mint_slowdown[2000]
    assert result.mint_refresh_power[500] > \
        result.mint_refresh_power[2000]
    # PRAC pays a roughly threshold-independent timing tax.
    assert result.prac_slowdown > 1.0
    # PRAC performs no mitigations at these thresholds, so its
    # refresh-power overhead is zero by construction (Figure 3).
    print()
    for trhd in (500, 1000, 2000):
        print(f"TRHD={trhd}: MINT+RFM slowdown "
              f"{result.mint_slowdown[trhd]:.2f}% "
              f"(paper {fig3.PAPER['mint_slowdown'][trhd]}%), "
              f"refresh power {result.mint_refresh_power[trhd]:.2f}% "
              f"(paper {fig3.PAPER['mint_refresh_power'][trhd]}%)")
    print(f"PRAC slowdown {result.prac_slowdown:.2f}% (paper 6.5%)")
