"""Exhibit: regenerate Table V (Naive MIRZA vs queue size)."""

from conftest import TIMED_SCALE, WORKLOADS

from repro.experiments import table5
from repro.experiments.framework import Context, run_experiment
from repro.sim.session import SimSession


def test_table5_naive_mirza():
    result = run_experiment(
        table5.EXPERIMENT,
        Context.make(workloads=WORKLOADS, scale=TIMED_SCALE,
                     windows=(24, 48, 96), queue_sizes=(1, 2, 4)),
        session=SimSession(disk_cache=False))
    # Shape 1: a single-entry queue is catastrophic; buffering helps.
    for window in (24, 48, 96):
        assert result.slowdown[(window, 1)] > \
            result.slowdown[(window, 4)]
    # Shape 2: wider MINT windows mean fewer ALERTs and less slowdown.
    assert result.slowdown[(24, 4)] >= result.slowdown[(96, 4)]
    # Shape 3: even the best naive config stays RFM-like (non-trivial).
    assert result.slowdown[(24, 4)] > 0.5
    print()
    for (window, q), value in sorted(result.slowdown.items()):
        paper = table5.PAPER.get((window, q))
        print(f"W={window} Q={q}: {value:.2f}% (paper {paper}%)")
