#!/usr/bin/env python
"""Simulation-kernel microbenchmarks: serial ``simulate()`` throughput.

Times the pure compute kernel (no session, no cache, no worker pool)
for the four representative setups -- unprotected baseline, PRAC+ABO,
proactive MINT+RFM, and MIRZA -- and reports served requests per
wall-clock second.  Results are written to ``BENCH_kernel.json`` so
CI (and future optimization passes) can gate on throughput:

    PYTHONPATH=src python benchmarks/bench_kernel.py
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke
    PYTHONPATH=src python benchmarks/bench_kernel.py \
        --backends event,array --check BENCH_kernel.json

``--backends`` benches each cell under every named kernel backend
(see ``repro.sim.backend``).  The ``event`` backend keeps the plain
``workload/setup`` keys; other backends append ``@<name>``
(``tc/mirza-1000@array``), and whenever an event twin was benched in
the same run the two cells' request/activation counts are
cross-checked -- backends are bit-identical by contract, so a mismatch
fails the run regardless of ``--check``.  Cells with an event twin are
also stamped with ``speedup_vs_event`` (requests/sec ratio), and a
per-cell summary table is printed at the end of the run.

``--check FILE`` compares against a previous run and exits non-zero
when any setup's requests/sec regressed by more than ``--tolerance``
(default 25%).  Absolute numbers are machine-dependent; the gate is a
ratio on the same machine, which is why CI checks its own fresh run of
the committed reference only for *relative* regressions.

The calibration sweep is warmed (and cached) before timing starts, so
the numbers measure ``simulate()`` itself, best of ``--rounds`` runs.

The suite runs inside ``Observation.from_env()``: ``REPRO_METRICS=1``
or ``REPRO_PROFILE=1`` times the kernel with that collection on, and
the result meta records how many metric keys were collected
(``metric_keys``), so an observability-on run can prove it observed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import subprocess
import sys
from datetime import datetime, timezone
from time import perf_counter
from typing import Dict, List, Optional

from repro.params import SimScale
from repro.sim.registry import setup_by_name
from repro.sim.runner import calibrated_workload, simulate

try:
    from repro.obs.observation import Observation
except ImportError:
    # Older library trees (CI times the base tree with this script)
    # read REPRO_METRICS inside simulate() themselves.
    Observation = None

SETUPS = ("baseline", "prac-1000", "mint-rfm-1000", "mirza-1000")
WORKLOADS = ("tc", "mcf")


def git_commit() -> str:
    """Current git commit hash, or ``"unknown"`` outside a checkout.

    Called exactly once per run (from :func:`main`, never a timed
    loop); the subprocess cost is irrelevant there.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def iso_timestamp() -> str:
    """Current UTC time as an ISO-8601 string (seconds precision)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def bench_one(workload: str, setup_name: str, scale: SimScale,
              seed: int, rounds: int,
              backend: str = "event") -> Dict[str, float]:
    """Best-of-``rounds`` serial simulate() timing for one cell."""
    setup = setup_by_name(setup_name)
    # Warm the calibration cache: simulate() reuses it, so the timed
    # region measures the kernel, not the calibration probes.
    calibrated_workload(workload, scale, seed)
    # The event backend never passes the keyword, so this script also
    # runs against library trees that predate simulate(backend=...) --
    # CI's A/B step times the *base* tree with the *head* script.
    kwargs = {} if backend == "event" else {"backend": backend}
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = perf_counter()
        result = simulate(workload, setup, scale, seed=seed, **kwargs)
        best = min(best, perf_counter() - t0)
    return {
        "seconds": round(best, 4),
        "requests": result.total_requests,
        "activations": result.total_activations,
        "requests_per_sec": round(result.total_requests / best, 1),
        "activations_per_sec": round(result.total_activations / best, 1),
    }


def cell_key(workload: str, setup_name: str, backend: str) -> str:
    """Result key for one cell; non-event backends get an @ suffix."""
    key = f"{workload}/{setup_name}"
    return key if backend == "event" else f"{key}@{backend}"


def run_suite(scale: SimScale, seed: int, rounds: int,
              workloads: List[str],
              backends: List[str]) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        for setup_name in SETUPS:
            for backend in backends:
                key = cell_key(workload, setup_name, backend)
                cell = bench_one(workload, setup_name, scale, seed,
                                 rounds, backend)
                results[key] = cell
                print(f"{key:<30} {cell['seconds']:8.3f}s "
                      f"{cell['requests_per_sec']:>12,.0f} req/s "
                      f"{cell['activations_per_sec']:>12,.0f} act/s",
                      file=sys.stderr)
    return results


TRACE_FIXTURE = "tests/fixtures/tc.dramsim3"
TRACE_SETUP = "mirza-1000"


def bench_trace_cells(scale: SimScale, seed: int, rounds: int,
                      backends: List[str],
                      results: Dict[str, Dict[str, float]]) -> None:
    """Bench an ingested-trace replay cell per backend, in place.

    Converts the checked-in DRAMSim3 fixture once, then times
    ``simulate_trace`` replaying it under ``TRACE_SETUP``.  Cells are
    keyed ``trace:tc/<setup>`` so the speedup and bit-identity
    machinery treats them like any other cell.  Import failures skip
    the cells instead of failing: CI's A/B step runs this script
    against the *base* library tree, which may predate ingestion.
    """
    import os
    import tempfile
    try:
        from repro.sim.runner import simulate_trace
        from repro.workloads.tracefile import convert_trace
    except ImportError:
        print("trace cells skipped (library predates trace "
              "ingestion)", file=sys.stderr)
        return
    fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, *TRACE_FIXTURE.split("/"))
    if not os.path.isfile(fixture):
        print(f"trace cells skipped ({TRACE_FIXTURE} not found)",
              file=sys.stderr)
        return
    setup = setup_by_name(TRACE_SETUP, scale)
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "tc.trace")
        convert_trace(fixture, trace, workload="tc", instructions=11)
        for backend in backends:
            key = cell_key("trace:tc", TRACE_SETUP, backend)
            best = float("inf")
            result = None
            for _ in range(rounds):
                t0 = perf_counter()
                result = simulate_trace(trace, setup, scale,
                                        seed=seed, backend=backend)
                best = min(best, perf_counter() - t0)
            cell = {
                "seconds": round(best, 4),
                "requests": result.total_requests,
                "activations": result.total_activations,
                "requests_per_sec":
                    round(result.total_requests / best, 1),
                "activations_per_sec":
                    round(result.total_activations / best, 1),
            }
            results[key] = cell
            print(f"{key:<30} {cell['seconds']:8.3f}s "
                  f"{cell['requests_per_sec']:>12,.0f} req/s "
                  f"{cell['activations_per_sec']:>12,.0f} act/s",
                  file=sys.stderr)


def annotate_speedups(results: Dict[str, Dict[str, float]]) -> None:
    """Stamp each cell with ``speedup_vs_event`` (1.0 for event cells).

    The ratio is requests/sec against the cell's event twin from the
    same run; cells without a twin (event not benched) are left
    unstamped.
    """
    for key, cell in results.items():
        twin = results.get(key.split("@", 1)[0])
        if twin is None or not twin.get("requests_per_sec"):
            continue
        cell["speedup_vs_event"] = round(
            cell["requests_per_sec"] / twin["requests_per_sec"], 2)


def print_speedup_table(results: Dict[str, Dict[str, float]]) -> None:
    """End-of-run summary: one row per cell, speedup vs event twin."""
    print("", file=sys.stderr)
    header = (f"{'cell':<32} {'seconds':>9} {'req/s':>14} "
              f"{'vs event':>9}")
    print(header, file=sys.stderr)
    print("-" * len(header), file=sys.stderr)
    for key in sorted(results):
        cell = results[key]
        speedup = cell.get("speedup_vs_event")
        vs_event = f"{speedup:.2f}x" if speedup is not None else "-"
        print(f"{key:<32} {cell['seconds']:>8.3f}s "
              f"{cell['requests_per_sec']:>14,.0f} {vs_event:>9}",
              file=sys.stderr)


def check_backend_identity(results: Dict[str, Dict[str, float]]
                           ) -> List[str]:
    """Cross-check every ``key@backend`` cell against its event twin.

    Kernel backends must be bit-identical; served requests and issued
    activations are the cheapest observables to compare from a bench
    cell (the test suite pins the full result-field set).
    """
    mismatches: List[str] = []
    for key, cell in results.items():
        if "@" not in key:
            continue
        twin = results.get(key.split("@", 1)[0])
        if twin is None:
            continue
        if (cell["requests"], cell["activations"]) != (
                twin["requests"], twin["activations"]):
            mismatches.append(
                f"{key}: requests/activations "
                f"{cell['requests']}/{cell['activations']} != event "
                f"twin {twin['requests']}/{twin['activations']}")
    return mismatches


def apply_reference(results: Dict[str, Dict[str, float]],
                    reference_path: str,
                    tolerance: float) -> List[str]:
    """Annotate ``results`` with speedups vs a previous run; return the
    list of cells that regressed beyond ``tolerance``."""
    with open(reference_path) as handle:
        reference = json.load(handle)
    ref_results = reference.get("results", reference)
    regressions: List[str] = []
    for key, cell in results.items():
        ref_cell = ref_results.get(key)
        if not ref_cell:
            continue
        ref_rps = ref_cell.get("requests_per_sec")
        if not ref_rps:
            continue
        speedup = cell["requests_per_sec"] / ref_rps
        cell["reference_requests_per_sec"] = ref_rps
        cell["speedup_vs_reference"] = round(speedup, 2)
        if speedup < 1.0 - tolerance:
            regressions.append(
                f"{key}: {cell['requests_per_sec']:,.0f} req/s vs "
                f"reference {ref_rps:,.0f} req/s "
                f"({100 * (1 - speedup):.0f}% slower)")
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_kernel.json",
                        help="result file (default: BENCH_kernel.json)")
    parser.add_argument("--time-scale", type=int, default=512,
                        metavar="S",
                        help="window divisor (default: 512)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds per cell, best kept "
                             "(default: 3)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        metavar="A,B,...")
    parser.add_argument("--backends", default="event",
                        metavar="A,B,...",
                        help="kernel backends to bench each cell under "
                             "(default: event); non-event cells are "
                             "keyed workload/setup@backend and "
                             "cross-checked for bit-identity against "
                             "their event twins")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows and one round -- seconds of "
                             "wall clock, for CI smoke checks")
    parser.add_argument("--check", metavar="FILE", default=None,
                        help="compare requests/sec against a previous "
                             "result file; non-zero exit on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional req/s regression for "
                             "--check (default: 0.25)")
    parser.add_argument("--commit", default=None, metavar="SHA",
                        help="commit hash to stamp into the result "
                             "meta (default: `git rev-parse HEAD`, or "
                             "'unknown' outside a checkout)")
    parser.add_argument("--timestamp", default=None, metavar="ISO",
                        help="ISO-8601 timestamp to stamp into the "
                             "result meta (default: current UTC time)")
    args = parser.parse_args(argv)

    time_scale = 4096 if args.smoke else args.time_scale
    # Smoke cells run in milliseconds; best-of-2 damps runner noise
    # enough for a 25% gate.
    rounds = 2 if args.smoke else args.rounds
    scale = SimScale(time_scale)
    workloads = [w for w in args.workloads.split(",") if w]
    backends = [b for b in args.backends.split(",") if b]

    with (Observation.from_env() if Observation is not None
          else contextlib.nullcontext()) as observed:
        results = run_suite(scale, args.seed, rounds, workloads,
                            backends)
        bench_trace_cells(scale, args.seed, rounds, backends, results)
    metrics = getattr(observed, "metrics", None)
    annotate_speedups(results)
    mismatches = check_backend_identity(results)
    payload = {
        "meta": {
            "time_scale": time_scale,
            "seed": args.seed,
            "rounds": rounds,
            "smoke": args.smoke,
            "backends": backends,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "commit": args.commit or git_commit(),
            "timestamp": args.timestamp or iso_timestamp(),
            "metric_keys": len(metrics) if metrics is not None else 0,
        },
        "results": results,
    }

    regressions: List[str] = []
    if args.check:
        regressions = apply_reference(results, args.check,
                                      args.tolerance)

    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print_speedup_table(results)
    print(f"wrote {args.output}", file=sys.stderr)

    if mismatches:
        print("BACKEND IDENTITY VIOLATION:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    if regressions:
        print("THROUGHPUT REGRESSION:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
