"""Ablation: Queue Tardiness Threshold (QTH) and queue size.

QTH bounds how long a queued row can keep absorbing activations before
an ALERT is forced (Phase C of the security budget); the queue size
bounds how many banks an ALERT can serve.  Sweeping both shows the
trade: bigger QTH -> fewer ALERTs but a bigger unmitigated budget.
"""

import random

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.dram.mapping import SequentialR2SA
from repro.params import DramGeometry, SystemConfig
from repro.security.attacks import SingleBankHarness

GEOMETRY = DramGeometry(banks_per_subchannel=4, subchannels=2,
                        rows_per_bank=4096, rows_per_subarray=1024,
                        rows_per_ref=16)


def hammer_with(qth: int, queue_entries: int = 4) -> dict:
    config = MirzaConfig(trhd=0, fth=40, mint_window=4,
                         num_regions=4, queue_entries=queue_entries,
                         qth=qth)
    tracker = MirzaTracker(config, GEOMETRY, SequentialR2SA(GEOMETRY),
                           random.Random(1))
    harness = SingleBankHarness(tracker,
                                SystemConfig(geometry=GEOMETRY),
                                acts_per_ref=50)
    harness.run(iter([777] * 30_000))
    return {"alerts": harness.alerts,
            "max_unmitigated": harness.max_unmitigated}


def test_ablation_qth():
    results = {
        qth: hammer_with(qth) for qth in (4, 16, 64)}
    # A larger QTH defers ALERTs (fewer of them) at the cost of a
    # larger worst-case unmitigated count.
    assert results[4]["alerts"] > results[64]["alerts"]
    assert results[4]["max_unmitigated"] <= \
        results[64]["max_unmitigated"]
    print()
    for qth, r in results.items():
        print(f"QTH={qth:3d}: alerts={r['alerts']:6d} "
              f"max_unmitigated={r['max_unmitigated']}")
