"""Extension: MC-side DRFM (MIST-style) vs in-DRAM MIRZA.

Section X positions DREAM/MIST as the MC-side alternatives: DRFM
mitigates a sampled aggressor across banks in parallel without the
in-DRAM tracker.  This test runs both on the same workloads and
compares the cost profile -- DRFM pays in per-command stalls like RFM,
MIRZA pays (almost) nothing thanks to filtering.
"""

from conftest import TIMED_SCALE, WORKLOADS

from repro.sim.runner import mirza_setup, mist_setup, slowdown_for
from repro.sim.stats import mean


def run_comparison():
    scale = TIMED_SCALE
    workloads = WORKLOADS
    out = {"mist": {}, "mirza": {}}
    for name in workloads:
        sd, result = slowdown_for(name, mist_setup(1000), scale)
        out["mist"][name] = {
            "slowdown": sd, "mitigations": result.mitigations,
            "max_unmitigated": result.max_unmitigated_acts}
        sd, result = slowdown_for(name, mirza_setup(1000, scale),
                                  scale)
        out["mirza"][name] = {
            "slowdown": sd, "mitigations": result.mitigations,
            "max_unmitigated": result.max_unmitigated_acts}
    return out


def test_mc_side_drfm_vs_mirza():
    results = run_comparison()
    mist_mitig = mean(r["mitigations"]
                      for r in results["mist"].values())
    mirza_mitig = mean(r["mitigations"]
                       for r in results["mirza"].values())
    # Proactive DRFM mitigates far more often than filtered MIRZA.
    assert mist_mitig > mirza_mitig
    # Both keep benign traffic's worst row counts low.
    for scheme in ("mist", "mirza"):
        for r in results[scheme].values():
            assert r["max_unmitigated"] < 5000
    print()
    for scheme in ("mist", "mirza"):
        for name, r in results[scheme].items():
            print(f"{scheme:5s} {name:10s} slowdown={r['slowdown']:6.2f}% "
                  f"mitigations={r['mitigations']:6d} "
                  f"max_unmit={r['max_unmitigated']}")
