"""Exhibit: regenerate Figure 1(c) (the headline summary)."""

import pytest
from conftest import COUNTING_SCALE, WORKLOADS

from repro.experiments import fig1
from repro.experiments.framework import Context, run_experiment


def test_fig1_summary():
    summary = run_experiment(fig1.EXPERIMENT, Context.make(
        workloads=WORKLOADS, cgf=COUNTING_SCALE))
    # Headline claims at TRHD=1K: far fewer mitigations than MINT,
    # far less area than PRAC, under 200 bytes of SRAM per bank.
    assert summary.mitigation_reduction > 8
    assert summary.area_reduction == pytest.approx(45.0, rel=0.05)
    assert summary.sram_bytes_per_bank == 196
    print()
    print(f"mitigations vs MINT: {summary.mitigation_reduction:.1f}x "
          f"fewer (paper 28.5x)")
    print(f"area vs PRAC: {summary.area_reduction:.1f}x lower "
          f"(paper 45x)")
    print(f"SRAM/bank: {summary.sram_bytes_per_bank:.0f} B "
          f"(paper 196 B)")
