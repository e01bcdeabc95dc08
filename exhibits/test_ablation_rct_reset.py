"""Ablation: safe vs eager vs lazy RCT reset (Appendix B).

Drives the Appendix B attack timing against all three reset policies
and shows the unmitigated-ACT gap: eager and lazy leak ~2x FTH while
the safe (RRC) policy exposes the second batch to MINT.
"""

import random

from repro.core.config import MirzaConfig
from repro.core.mirza import MirzaTracker
from repro.core.rct import ResetPolicy
from repro.dram.mapping import SequentialR2SA
from repro.params import DramGeometry, SystemConfig
from repro.security.attacks import SingleBankHarness

GEOMETRY = DramGeometry(banks_per_subchannel=4, subchannels=2,
                        rows_per_bank=4096, rows_per_subarray=1024,
                        rows_per_ref=16)
FTH = 200


def attack_policy(policy: ResetPolicy) -> dict:
    config = MirzaConfig(trhd=0, fth=FTH, mint_window=4,
                         num_regions=4, queue_entries=4, qth=8)
    tracker = MirzaTracker(config, GEOMETRY, SequentialR2SA(GEOMETRY),
                           random.Random(0), reset_policy=policy)
    # REF cadence chosen so the whole first batch lands before the
    # region's sweep begins (FTH - 1 < acts_per_ref).
    harness = SingleBankHarness(tracker,
                                SystemConfig(geometry=GEOMETRY),
                                acts_per_ref=FTH + 50)
    target, pad = 1023, 2048
    # Batch 1: just before the region's sweep begins.
    for _ in range(FTH - 1):
        harness.activate(target)
    while harness.refresh.refptr == 0:
        harness.activate(pad)
    # Batch 2: while the sweep is in flight (the target row, last in
    # the region, is refreshed at the sweep's end).
    for _ in range(FTH - 1):
        harness.activate(target)
    return {
        "escaped": tracker.rct.escaped_acts,
        "unmitigated": harness.bank.oracle.count(target),
    }


def test_ablation_rct_reset():
    results = {
        policy.value: attack_policy(policy) for policy in ResetPolicy}
    # Eager reset: the attack is entirely filtered, 2*(FTH-1) leak.
    assert results["eager"]["escaped"] == 0
    assert results["eager"]["unmitigated"] == 2 * (FTH - 1)
    # Safe reset: the RRC exposes the second batch to MINT.
    assert results["safe"]["escaped"] > 0
    assert results["safe"]["unmitigated"] < \
        results["eager"]["unmitigated"]
    print()
    for policy, r in results.items():
        print(f"{policy:5s}: escaped={r['escaped']:4d} "
              f"unmitigated={r['unmitigated']}")
