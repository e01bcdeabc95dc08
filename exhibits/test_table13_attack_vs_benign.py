"""Exhibit: regenerate Table XIII (average vs worst-case slowdown)."""

from conftest import TIMED_SCALE, WORKLOADS

from repro.experiments import table13
from repro.experiments.framework import Context, run_experiment


def test_table13_attack_vs_benign():
    rows = run_experiment(table13.EXPERIMENT, Context.make(
        workloads=WORKLOADS, scale=TIMED_SCALE))
    by_key = {(r.trhd, r.tracker): r for r in rows}
    for trhd in (500, 1000, 2000):
        mirza = by_key[(trhd, "MIRZA")]
        prac = by_key[(trhd, "PRAC+ABO")]
        mint = by_key[(trhd, "MINT+RFM")]
        # MIRZA wins the average case...
        assert mirza.average_slowdown_pct < prac.average_slowdown_pct
        assert mirza.average_slowdown_pct < mint.average_slowdown_pct
        # ...and pays for it with the worst attack-case slowdown.
        assert mirza.attack_slowdown_x > prac.attack_slowdown_x
        # But stays within contention-attack territory (< 3x).
        assert mirza.attack_slowdown_x < 3.0
    print()
    for r in rows:
        paper = table13.PAPER[(r.trhd, r.tracker)]
        print(f"TRHD={r.trhd} {r.tracker:9s}: attack "
              f"{r.attack_slowdown_x:.2f}x (paper {paper[0]}x), "
              f"avg {r.average_slowdown_pct:.2f}% (paper {paper[1]}%)")
