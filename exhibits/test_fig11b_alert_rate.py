"""Exhibit: regenerate Figure 11(b) (ALERTs per 100 x tREFI)."""

from conftest import TIMED_SCALE, WORKLOADS

from repro.experiments import fig11
from repro.experiments.framework import Context, run_experiment


def test_fig11b_alert_rate():
    result = run_experiment(fig11.EXPERIMENT, Context.make(
        workloads=WORKLOADS, scale=TIMED_SCALE,
        thresholds=(500, 1000, 2000)))
    # PRAC triggers essentially no ALERTs at these thresholds: its
    # slowdown is purely timing inflation (the paper's point).
    assert result.prac_alert_rate < 0.01
    # MIRZA raises ALERTs at a low, threshold-dependent rate.
    assert result.mirza_alert_rate[500] >= \
        result.mirza_alert_rate[2000]
    assert result.mirza_alert_rate[1000] < 25.0
    print()
    for trhd in (500, 1000, 2000):
        print(f"MIRZA-{trhd}: "
              f"{result.mirza_alert_rate[trhd]:.2f} ALERTs/100 tREFI"
              + (" (paper 2.16)" if trhd == 1000 else ""))
    print(f"PRAC: {result.prac_alert_rate:.3f} (paper ~0)")
