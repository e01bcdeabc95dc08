"""Exhibit: regenerate Table VIII (mitigation overhead MINT vs MIRZA)."""

from conftest import COUNTING_SCALE, WORKLOADS

from repro.experiments import table8
from repro.experiments.framework import Context, run_experiment


def test_table8_mitigation_overhead():
    rows = run_experiment(table8.EXPERIMENT, Context.make(
        workloads=WORKLOADS, cgf=COUNTING_SCALE))
    by_trhd = {r.trhd: r for r in rows}
    # MIRZA always mitigates far less often than MINT, and the gap
    # widens as the threshold relaxes (10x -> 28.5x -> 125x in the
    # paper).
    assert by_trhd[500].reduction > 1.5
    assert by_trhd[1000].reduction > 8
    assert by_trhd[2000].reduction > 25
    assert by_trhd[2000].reduction > by_trhd[1000].reduction > \
        by_trhd[500].reduction
    # Escape probabilities are small: filtering does the heavy lifting.
    assert by_trhd[1000].escape_probability < 0.05
    print()
    for r in rows:
        paper = table8.PAPER[r.trhd]
        print(f"TRHD={r.trhd}: escape 1/{1 / r.escape_probability:.0f}"
              f" (paper 1/{1 / paper['escape']:.0f}), reduction "
              f"{r.reduction:.0f}x (paper {paper['ratio']}x)")
