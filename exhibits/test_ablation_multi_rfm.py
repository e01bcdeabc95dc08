"""Ablation: RFMs per ALERT (Section V-E's '1 RFM per ALERT').

JEDEC's ABO lets the controller issue 1/2/4 RFMs per ALERT.  More RFMs
drain more MIRZA-Q entries per stall (fewer ALERTs) at the cost of a
longer stall each time.  The paper picks 1; this ablation shows why
that is the right default at MIRZA's low ALERT rates.
"""

import dataclasses
import random

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.dram.mapping import SequentialR2SA
from repro.params import AboTimings, DramGeometry, SystemConfig
from repro.security.attacks import SingleBankHarness

GEOMETRY = DramGeometry(banks_per_subchannel=4, subchannels=2,
                        rows_per_bank=4096, rows_per_subarray=1024,
                        rows_per_ref=16)


def hammer_with_rfms(rfms: int) -> dict:
    abo = AboTimings(rfms_per_alert=rfms)
    system = dataclasses.replace(
        SystemConfig(geometry=GEOMETRY), abo=abo)
    config = MirzaConfig(trhd=0, fth=40, mint_window=4,
                         num_regions=4, queue_entries=4, qth=8)
    tracker = MirzaTracker(config, GEOMETRY, SequentialR2SA(GEOMETRY),
                           random.Random(2))

    class MultiSlotHarness(SingleBankHarness):
        def _service_alert(self, now):
            self._alert_countdown = None
            self._acts_since_alert = 0
            self.alerts += 1
            for _ in range(rfms):
                for row in self.tracker.on_mitigation_slot(
                        now, __import__(
                            "repro.mitigations.base",
                            fromlist=["MitigationSlotSource"]
                        ).MitigationSlotSource.ALERT):
                    self.bank.mitigate(row, self.blast_radius)
                    self.mitigations += 1

    harness = MultiSlotHarness(tracker, system, acts_per_ref=50)
    rows = [100, 200, 300, 400, 500, 600]
    harness.run(iter([rows[i % 6] for i in range(30_000)]))
    stall_time_ns = harness.alerts * abo.total_stall / 1000
    return {"alerts": harness.alerts,
            "mitigations": harness.mitigations,
            "stall_us": stall_time_ns / 1000,
            "max_unmitigated": harness.max_unmitigated}


def test_ablation_rfms_per_alert():
    results = {
        rfms: hammer_with_rfms(rfms) for rfms in (1, 2, 4)}
    # More RFMs per ALERT -> fewer ALERTs...
    assert results[1]["alerts"] > results[2]["alerts"] \
        >= results[4]["alerts"]
    # ...with the mitigation total roughly conserved.
    assert results[4]["mitigations"] >= \
        0.5 * results[1]["mitigations"]
    # Security never degrades with extra mitigation slots.
    assert results[4]["max_unmitigated"] <= \
        results[1]["max_unmitigated"] + 8
    print()
    for rfms, r in results.items():
        print(f"rfms/alert={rfms}: alerts={r['alerts']:6d} "
              f"mitigations={r['mitigations']:6d} "
              f"stall={r['stall_us']:8.1f}us "
              f"max_unmitigated={r['max_unmitigated']}")
