"""Exhibit: regenerate Table X (relative area MIRZA vs PRAC)."""

import pytest

from repro.experiments import table10
from repro.experiments.framework import render_experiment, \
    run_experiment


def test_table10_area():
    rows = run_experiment(table10.EXPERIMENT)
    by_trhd = {r.trhd: r for r in rows}
    for trhd, paper in table10.PAPER.items():
        row = by_trhd[trhd]
        assert row.mirza_bits_per_subarray == paper["mirza_bits"]
        assert row.prac_bits_per_subarray == paper["prac_bits"]
        assert row.area_ratio == pytest.approx(paper["ratio"],
                                               rel=0.05)
    # PRAC's disadvantage grows as thresholds tighten less (counters
    # shrink slower than regions grow).
    assert by_trhd[1000].area_ratio > by_trhd[500].area_ratio > \
        by_trhd[250].area_ratio
    print()
    print(render_experiment(table10.EXPERIMENT, rows))
