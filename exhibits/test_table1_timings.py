"""Exhibit: regenerate Table I (DRAM timing parameters)."""


from repro.experiments import table1
from repro.experiments.framework import render_experiment, \
    run_experiment


def test_table1_timings():
    values = run_experiment(table1.EXPERIMENT)
    for name, (ddr5, prac) in table1.PAPER_ROWS.items():
        assert values[name]["ddr5_ns"] == ddr5
        assert values[name]["prac_ns"] == prac
    print()
    print(render_experiment(table1.EXPERIMENT, values))
