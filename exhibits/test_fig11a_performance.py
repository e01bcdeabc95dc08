"""Exhibit: regenerate Figure 11(a) (MIRZA vs PRAC slowdown)."""

from conftest import TIMED_SCALE, WORKLOADS

from repro.experiments import fig11
from repro.experiments.framework import Context, run_experiment
from repro.sim.session import SimSession


def test_fig11a_performance():
    result = run_experiment(
        fig11.EXPERIMENT,
        Context.make(workloads=WORKLOADS, scale=TIMED_SCALE),
        session=SimSession(disk_cache=False))
    # Headline: MIRZA is far cheaper than PRAC at every threshold.
    for trhd in (500, 1000, 2000):
        assert result.mirza_slowdown[trhd] < result.prac_slowdown
    # MIRZA's slowdown decays as the threshold relaxes.
    assert result.mirza_slowdown[500] >= result.mirza_slowdown[2000]
    # MIRZA at TRHD=1K stays near-free (paper: 0.36%).
    assert result.mirza_slowdown[1000] < 2.5
    print()
    for trhd in (500, 1000, 2000):
        print(f"MIRZA-{trhd}: {result.mirza_slowdown[trhd]:.2f}% "
              f"(paper {fig11.PAPER['mirza_slowdown'][trhd]}%)")
    print(f"PRAC: {result.prac_slowdown:.2f}% (paper 6.5%)")
