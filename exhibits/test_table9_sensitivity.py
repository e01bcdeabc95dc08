"""Exhibit: regenerate Table IX (FTH vs MINT-W sensitivity)."""

from conftest import TIMED_SCALE, WORKLOADS

from repro.experiments import table9
from repro.experiments.framework import Context, run_experiment


def test_table9_sensitivity():
    rows = run_experiment(table9.EXPERIMENT, Context.make(
        workloads=WORKLOADS, scale=TIMED_SCALE,
        points=((4, 1820), (12, 1500), (16, 1350))))
    by_window = {r.mint_window: r for r in rows}
    # Lower FTH (bigger window) leaves more ACTs unfiltered.
    assert by_window[16].remaining_acts_pct > \
        by_window[4].remaining_acts_pct
    # SRAM stays constant across the sweep (same counter width).
    assert len({r.sram_bytes for r in rows}) == 1
    # Every point stays far cheaper than PRAC's 6.5%.
    assert all(r.slowdown_pct < 4.0 for r in rows)
    print()
    for r in rows:
        print(f"W={r.mint_window} FTH={r.fth}: slowdown "
              f"{r.slowdown_pct:.2f}% "
              f"(paper {table9.PAPER_SLOWDOWN[r.mint_window]}%), "
              f"remaining {r.remaining_acts_pct:.2f}% "
              f"(paper {table9.PAPER_REMAINING[r.mint_window]}%)")
