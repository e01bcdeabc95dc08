"""Tests for the extension exhibits."""

from repro.experiments.extras import (
    energy_table,
    lifetime_table,
    storage_comparison,
)
from repro.report import run_exhibit


class TestExtras:
    def test_lifetime_table_mentions_calibrated_k(self, capsys):
        out = lifetime_table()
        assert "28.5" in out
        capsys.readouterr()

    def test_energy_table_reproduces_reduction_ratios(self, capsys):
        out = energy_table()
        # The paper's Table VIII ratios carried into energy.
        assert "10x" in out
        assert "28x" in out
        assert "125x" in out
        capsys.readouterr()

    def test_storage_comparison_orders_trackers(self, capsys):
        out = storage_comparison()
        # MIRZA sits far below the CAM trackers.
        assert "7,168" in out
        assert "MIRZA" in out
        capsys.readouterr()

    def test_main_concatenates(self, capsys):
        out = run_exhibit("extras")
        assert out.count("Tracker storage") == 1
        capsys.readouterr()
