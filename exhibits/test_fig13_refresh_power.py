"""Exhibit: regenerate Figure 13 (refresh power MINT vs MIRZA)."""

from conftest import COUNTING_SCALE, WORKLOADS

from repro.experiments import fig13
from repro.experiments.framework import Context, run_experiment


def test_fig13_refresh_power():
    result = run_experiment(fig13.EXPERIMENT, Context.make(
        workloads=WORKLOADS, cgf=COUNTING_SCALE))
    # MIRZA's victim-refresh energy is a fraction of MINT's.  The gap
    # widens with the threshold (paper: ~10x/28x/125x); at TRHD=500
    # the default heavy-workload subset escapes the (small) FTH more
    # than the 24-workload average, so the bound there is looser.
    assert result.mirza_overhead[500] < result.mint_overhead[500]
    assert result.mirza_overhead[1000] < result.mint_overhead[1000] / 3
    assert result.mirza_overhead[2000] < result.mint_overhead[2000] / 10
    # Overheads shrink with relaxing thresholds for both schemes.
    assert result.mint_overhead[500] > result.mint_overhead[2000]
    # MIRZA at 1K: ~0.3% in the paper; stay below 1.5%.
    assert result.mirza_overhead[1000] < 1.5
    print()
    for trhd in (500, 1000, 2000):
        print(f"TRHD={trhd}: MINT "
              f"{result.mint_overhead[trhd]:.2f}% "
              f"(paper {fig13.PAPER['mint'][trhd]}%), MIRZA "
              f"{result.mirza_overhead[trhd]:.3f}% "
              f"(paper {fig13.PAPER['mirza'][trhd]}%)")
