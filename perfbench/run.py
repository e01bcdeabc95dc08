"""The simulator benchmark: times a workload end to end, checks outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload benign-cold --seed 0 \\
        --seconds 24 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``) through a
serial ``SimSession`` with its own empty on-disk cache directory, so
every cell, calibration included, is computed as on a first run.
Repetitions continue while the next one is expected to end within
``--seconds`` (at least three are made); the run reports medians.  With
``--trace 1`` untraced and traced repetitions alternate and the per-layer
split of the median traced repetition is reported instead.

Outputs are checked per cell against ``reference.json`` (digests
recorded on the ``event`` backend by ``record_reference.py``); a seed
without a recorded reference is checked against an ``event`` oracle run
made after the timed part.  The last stdout line is the JSON result;
see README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
TMP_BASE = ROOT / ".perfbench-tmp"

WORKLOADS = ("benign-cold", "attack-tenants", "fuzz-sweep")
BACKEND = {"benign-cold": "event", "attack-tenants": "array",
           "fuzz-sweep": "event"}
"""``REPRO_KERNEL_BACKEND`` of timed runs; the oracle always uses
``event``.  The fuzz harness drives trackers directly and uses no
kernel backend at all."""

FAILED = "failed"
"""Digest of a failed cell (``workloads.FAILED``)."""
MIN_REPS = 3
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "calibration.s": "s", "calibration.calls": "count",
    "workloads.trace_s": "s", "workloads.chunks": "count",
    "address_space.build_s": "s", "address_space.builds": "count",
    "mc.serve_s": "s", "mc.requests": "count",
    "mc.refresh_s": "s", "mc.refs": "count",
    "mc.alerts": "count", "mc.rfms": "count",
    "trackers.s": "s", "trackers.acts": "count",
    "trackers.mitigations": "count",
    "backend.flush_s": "s", "backend.flushes": "count",
    "backend.acts_per_flush": "acts/flush",
    "cpu.self_s": "s",
    "security.harness_s": "s", "security.harness_acts": "count",
    "session.overhead_s": "s", "session.cache_write_s": "s",
    "session.computed": "count", "session.failed": "count",
    "session.retried": "count",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SELF_TIME_ROWS = [name for name, unit in PER_LAYER_UNITS.items()
                  if unit == "s" and name not in
                  ("startup.import_s", "trace.wall_s", "trace.overhead_s")]
"""The rows that add up to ``trace.wall_s``."""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(workload: str, cache_dir: Optional[str],
              backend: Optional[str] = None) -> Dict[str, str]:
    """The environment of every child: no inherited ``REPRO_*`` knob,
    one thread per numeric library, serial session, pinned backend."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_JOBS": "1",
        "REPRO_KERNEL_BACKEND": backend or BACKEND[workload],
        "REPRO_WORKLOAD_CACHE": "64",
    })
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = cache_dir
    return env


def launch(workload: str, seed: int, mode: str,
           tmp: Optional[Path] = None) -> dict:
    """Run one ``worker.py`` child to completion; return its result.

    Timed and traced children get a fresh cache directory under
    ``tmp``, removed when they exit.  ``launch_s`` is the child's
    set-up time: launch to first job submitted.
    """
    cache_dir = None
    if mode in ("timed", "traced"):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    backend = "event" if mode == "oracle" else None
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode]
    if cache_dir is not None:
        cmd += ["--cache-dir", cache_dir]
    try:
        t_launch = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(workload, cache_dir, backend),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") \
            from exc
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["launch_s"] = out["t_submit"] - t_launch
    return out


def repeat(workload: str, seed: int, modes: Tuple[str, ...],
           seconds: float, min_rounds: int, tmp: Path) -> List[dict]:
    """Rounds of children (one per mode, in order) while the next round
    is expected to end within ``seconds``."""
    reps: List[dict] = []
    start = time.monotonic()
    rounds = 0
    while True:
        for mode in modes:
            rep = launch(workload, seed, mode, tmp)
            rep["mode"] = mode
            reps.append(rep)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds \
                > seconds:
            return reps


def load_reference(workload: str, seed: int) -> Optional[List[str]]:
    """Recorded digests for ``(workload, seed)``, or None."""
    if not REFERENCE.exists():
        return None
    table = json.loads(REFERENCE.read_text())
    return table.get(workload, {}).get(str(seed))


def oracle_digests(workload: str, seed: int, reps: List[dict]
                   ) -> List[str]:
    """Digests of the cells run on the ``event`` oracle backend.

    Workloads timed on ``event`` already ran on the oracle in every
    repetition (and the repetitions must agree), so only the others
    launch an untimed oracle child.
    """
    if BACKEND[workload] == "event":
        return reps[0]["digests"]
    return launch(workload, seed, "oracle")["digests"]


def check(workload: str, seed: int, reps: List[dict]
          ) -> Tuple[bool, int, int, List[str]]:
    """Compare every repetition's digests with the expected ones.

    Returns ``(correct, attempted, failed, notes)``.  A cell fails when
    it raised or its digest differs; the run is incorrect when a digest
    differs, or a cell fails whose expected outcome is a result.  A cell
    the reference records as failed (the known fuzzer defect) counts as
    failed but not incorrect; if it now completes, it is checked
    against the oracle instead.
    """
    expected = load_reference(workload, seed)
    oracle: Optional[List[str]] = None
    notes: List[str] = []
    if expected is None:
        oracle = expected = oracle_digests(workload, seed, reps)
        notes.append("no recorded reference: checked against the event "
                     "oracle")
    correct = True
    attempted = failed = 0
    for rep in reps:
        got = rep["digests"]
        if len(got) != len(expected):
            raise BenchError(f"{len(got)} cells, reference has "
                             f"{len(expected)}")
        for index, (have, want) in enumerate(zip(got, expected)):
            attempted += 1
            if have != FAILED and want == FAILED:
                if oracle is None:
                    oracle = oracle_digests(workload, seed, reps)
                want = oracle[index]
            if have == want and have != FAILED:
                continue
            failed += 1
            if have != want:
                correct = False
                notes.append(f"{rep['mode']} cell {index}: got {have}, "
                             f"expected {want}")
    return correct, attempted, failed, notes


def median_rep(reps: List[dict]) -> dict:
    """The repetition with the median wall time (lower middle)."""
    ordered = sorted(reps, key=lambda rep: rep["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer(timed: List[dict], traced: List[dict],
              everyone: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of the median traced repetition."""
    rep = median_rep(traced)
    layers = dict(rep["layers"])
    flushes = layers["backend.flushes"]
    layers["backend.acts_per_flush"] = (
        layers.pop("backend.acts") / flushes if flushes else 0.0)
    layers["startup.import_s"] = statistics.median(
        r["import_s"] for r in everyone)
    layers["trace.wall_s"] = rep["wall_s"]
    layers["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in timed))
    return {name: layers[name] for name in PER_LAYER_UNITS}


def print_table(workload: str, metrics: Dict[str, float]) -> None:
    wall = metrics["trace.wall_s"]
    print(f"per-layer self times, {workload} (traced wall "
          f"{wall:.3f} s):")
    for name in SELF_TIME_ROWS:
        share = 100.0 * metrics[name] / wall if wall else 0.0
        print(f"  {name:<24} {metrics[name]:9.4f} s  {share:5.1f}%")
    total = sum(metrics[name] for name in SELF_TIME_ROWS)
    print(f"  {'sum':<24} {total:9.4f} s")
    print(f"  {'trace.overhead_s':<24} {metrics['trace.overhead_s']:9.4f} s")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload`` for about ``seconds``; the result object."""
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        raise BenchError(f"no program to benchmark: {ROOT / 'src/repro'} "
                         f"is missing")
    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_BASE))
    try:
        # Untimed warm-up: byte-compiles the package and fills the OS
        # file cache, which a user pays once, not on every run.
        launch(workload, seed, "setup", tmp)
        if trace:
            reps = repeat(workload, seed, ("timed", "traced"), seconds,
                          1, tmp)
            setups = []
        else:
            reps = repeat(workload, seed, ("timed",), seconds, MIN_REPS,
                          tmp)
            setups = [launch(workload, seed, "setup", tmp)
                      for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_BASE.rmdir()
        except OSError:
            pass
    correct, attempted, failed, notes = check(workload, seed, reps)
    for note in notes:
        print(f"check: {note}")
    timed = [r for r in reps if r["mode"] == "timed"]
    if trace:
        traced = [r for r in reps if r["mode"] == "traced"]
        values = per_layer(timed, traced, reps)
        print_table(workload, values)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        med = statistics.median
        metrics = {
            "wall_s": (med(r["wall_s"] for r in timed), "s"),
            "setup_s": (med(r["launch_s"] for r in timed + setups), "s"),
            "cpu_s": (med(r["cpu_s"] for r in timed), "s"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in timed), "MB"),
            "sim_acts_per_s": (med(r["acts"] / r["wall_s"]
                                   for r in timed), "acts/s"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
        }
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
        print(f"{workload} seed {seed}: {len(timed)} repetitions, "
              f"walls " + ", ".join(f"{r['wall_s']:.3f}" for r in timed))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time one simulator workload end to end.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
