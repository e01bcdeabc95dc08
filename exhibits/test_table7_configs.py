"""Exhibit: regenerate Table VII (MIRZA configurations)."""

import pytest

from repro.experiments import table7
from repro.experiments.framework import render_experiment, \
    run_experiment


def test_table7_configs():
    rows = run_experiment(table7.EXPERIMENT)
    by_trhd = {r.trhd: r for r in rows}
    for trhd, paper in table7.PAPER.items():
        row = by_trhd[trhd]
        assert row.preset.fth == paper["fth"]
        assert row.preset.mint_window == paper["window"]
        assert row.preset.num_regions == paper["regions"]
        assert row.preset.storage_bytes_per_bank == paper["sram"]
        # The solver independently lands within 1% of the paper's FTH.
        assert row.solved.fth == pytest.approx(paper["fth"], rel=0.01)
        assert row.solved.is_safe()
    print()
    print(render_experiment(table7.EXPERIMENT, rows))
