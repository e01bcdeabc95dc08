"""Tests for the purely analytic experiment modules (fast)."""

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import table11
from repro.experiments.framework import Context, run_experiment
from repro.report import run_exhibit


class TestTable1:
    def test_values_match_paper(self):
        values = run_experiment("table1")
        assert values["tRP"] == {"ddr5_ns": 14, "prac_ns": 36}
        assert values["tRC"] == {"ddr5_ns": 46, "prac_ns": 52}

    def test_main_prints_table(self, capsys):
        assert cli_main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "tRP" in out
        assert out


class TestTable7:
    def test_rows_cover_three_thresholds(self):
        rows = run_experiment("table7")
        assert sorted(r.trhd for r in rows) == [500, 1000, 2000]

    def test_preset_and_solved_agree(self):
        for row in run_experiment("table7"):
            assert abs(row.preset.fth - row.solved.fth) <= \
                0.01 * row.preset.fth

    def test_main_mentions_sram(self, capsys):
        out = run_exhibit("table7")
        assert "196" in out


class TestTable10:
    def test_ratios(self):
        rows = {r.trhd: r for r in run_experiment("table10")}
        assert rows[1000].area_ratio == pytest.approx(45, rel=0.05)
        assert rows[250].mirza_bits_per_subarray == 36

    def test_main(self):
        assert "45" in run_exhibit("table10")


class TestTable11:
    def test_throughput_matches_paper(self):
        rows = {r.mint_window: r for r in run_experiment("table11")}
        assert rows[12].relative_throughput_pct == pytest.approx(
            55.9, rel=0.1)

    def test_window_below_protocol_minimum_rejected(self):
        with pytest.raises(ValueError):
            table11.attack_relative_throughput(3)

    def test_slowdown_factor_inverse(self):
        row = run_experiment(table11.EXPERIMENT,
                             Context.make(windows=(12,)))[0]
        assert row.slowdown_factor == pytest.approx(
            100 / row.relative_throughput_pct)


class TestTable12:
    def test_trr_insecure_mirza_free(self):
        rows = {r.tracker: r for r in run_experiment("table12")}
        assert not rows["TRR"].secure
        assert rows["MIRZA"].cannibalization_pct == 0.0
        assert rows["MIRZA"].storage_bytes == pytest.approx(72, abs=4)

    def test_mint_cannibalization(self):
        rows = {r.tracker: r for r in run_experiment("table12")}
        assert rows["MINT"].cannibalization_pct == pytest.approx(
            22.8, abs=0.5)
