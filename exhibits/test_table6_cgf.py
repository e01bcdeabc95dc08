"""Exhibit: regenerate Table VI (CGF vs row-to-subarray mapping).

This doubles as the R2SA-mapping ablation called out in DESIGN.md:
identical activation streams, two mappings, opposite outcomes.
"""

from conftest import COUNTING_SCALE, WORKLOADS

from repro.experiments import table6
from repro.experiments.framework import Context, run_experiment


def test_table6_cgf():
    result = run_experiment(table6.EXPERIMENT, Context.make(
        workloads=WORKLOADS, cgf=COUNTING_SCALE,
        fths=(1400, 1500, 1600, 1700)))
    for fth in (1400, 1500, 1600, 1700):
        strided = result.filtered_pct[(fth, "strided")]
        sequential = result.filtered_pct[(fth, "sequential")]
        # The paper's headline: strided filters ~99%, sequential ~5%.
        assert strided > 90.0
        assert sequential < 40.0
        assert strided > sequential + 50.0
    # Filtering strengthens monotonically with FTH.
    assert result.filtered_pct[(1700, "strided")] >= \
        result.filtered_pct[(1400, "strided")]
    print()
    for (fth, mapping), value in sorted(result.filtered_pct.items()):
        print(f"FTH={fth} {mapping:10s}: {value:.2f}% filtered "
              f"(paper {table6.PAPER[(fth, mapping)]}%)")
