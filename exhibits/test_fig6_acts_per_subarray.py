"""Exhibit: regenerate Figure 6 (benign vs worst-case ACT density)."""

import pytest
from conftest import COUNTING_SCALE, WORKLOADS

from repro.experiments import fig6
from repro.experiments.framework import Context, run_experiment
from repro.workloads.specs import workload_by_name


def test_fig6_acts_per_subarray():
    result = run_experiment(fig6.EXPERIMENT, Context.make(
        workloads=WORKLOADS, cgf=COUNTING_SCALE))
    # Benign workloads sit orders of magnitude below the worst case.
    assert result.worst_case == pytest.approx(621_000, rel=0.05)
    assert result.divergence > 100
    for name, value in result.per_workload.items():
        paper = workload_by_name(name).acts_per_subarray_mean
        assert value == pytest.approx(paper, rel=0.4)
    print()
    fmt = ", ".join(f"{n}={v:.0f}" for n, v in
                    result.per_workload.items())
    print(f"ACTs/subarray/tREFW: {fmt}; worst case "
          f"{result.worst_case:,} ({result.divergence:.0f}x avg, "
          f"paper ~423x)")
