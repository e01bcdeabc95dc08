"""Exhibit: regenerate Table XII (overheads at today's TRHD=4.8K)."""

import pytest

from repro.experiments import table12
from repro.experiments.framework import render_experiment, \
    run_experiment


def test_table12_current_threshold():
    rows = run_experiment(table12.EXPERIMENT)
    by_name = {r.tracker: r for r in rows}
    for name, paper in table12.PAPER.items():
        row = by_name[name]
        assert row.storage_bytes == pytest.approx(paper["storage"],
                                                  abs=4)
        assert row.secure == paper["secure"]
        assert row.cannibalization_pct == pytest.approx(
            paper["cannibalization"], abs=1.0)
    # The design point: MIRZA leaves REF time entirely to refresh.
    assert by_name["MIRZA"].cannibalization_pct == 0.0
    assert not by_name["TRR"].secure
    print()
    print(render_experiment(table12.EXPERIMENT, rows))
