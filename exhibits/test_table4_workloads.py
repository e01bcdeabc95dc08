"""Exhibit: regenerate Table IV (workload characteristics)."""

from conftest import TIMED_SCALE, WORKLOADS

from repro.experiments import table4
from repro.experiments.framework import Context, run_experiment
from repro.workloads.specs import workload_by_name


def test_table4_workloads():
    measurements = run_experiment(table4.EXPERIMENT, Context.make(
        workloads=WORKLOADS, scale=TIMED_SCALE))
    for name, m in measurements.items():
        spec = workload_by_name(name)
        # The calibrated generator lands near the published ACT rate.
        assert m.acts_per_subarray_mean == \
            __import__("pytest").approx(
                spec.acts_per_subarray_mean, rel=0.4)
        # Ranking of intensity is preserved.
    ordered = sorted(measurements.values(),
                     key=lambda m: m.acts_per_subarray_mean)
    paper_ordered = sorted(
        measurements, key=lambda n: workload_by_name(
            n).acts_per_subarray_mean)
    assert [m.name for m in ordered] == paper_ordered
