"""Tests of the benchmark itself (not part of the repository's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TIME_LAYERS, Tracer  # noqa: E402


def _digests(cells, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        results = workloads.execute(cells, workloads.new_session(None))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, workloads.digests(results)


@pytest.fixture(scope="module")
def benign_cells():
    return workloads.build("benign-cold", 3, limit=2)


def test_digest_repeats_across_runs(benign_cells):
    fuzz = workloads.build("fuzz-sweep", 0, fuzz_budget=2)
    assert _digests(benign_cells)[1] == _digests(benign_cells)[1]
    assert _digests(fuzz)[1] == _digests(fuzz)[1]


def test_digest_covers_only_simulated_statistics(benign_cells):
    results, digests = _digests(benign_cells)
    decorated = [r.__class__(**{**vars(r), "backend": "other",
                                "metrics": {"x": 1}, "spans": [[0]]})
                 for r in results]
    assert workloads.digests(decorated) == digests
    changed = [r.__class__(**{**vars(r), "mitigations": r.mitigations + 1})
               for r in results]
    assert workloads.digests(changed) != digests


def test_traced_and_untraced_digests_agree(benign_cells):
    fuzz = workloads.build("fuzz-sweep", 0, fuzz_budget=2)
    for cells in (benign_cells, fuzz):
        assert _digests(cells, Tracer())[1] == _digests(cells)[1]


def test_event_and_array_agree_on_attack_tenants(monkeypatch):
    cells = workloads.build("attack-tenants", 0, limit=2)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "event")
    event = _digests(cells)[1]
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "array")
    assert _digests(cells)[1] == event


@pytest.mark.parametrize("workload,backend",
                         [("benign-cold", "event"),
                          ("attack-tenants", "array")])
def test_self_times_sum_to_traced_wall_and_counts_match(
        workload, backend, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
    cells = workloads.build(workload, 3, limit=1)
    tracer = Tracer()
    t0 = time.monotonic()
    results, _ = _digests(cells, tracer)
    wall = time.monotonic() - t0
    layers = tracer.layers(wall)
    parts = [layers[name] for name in TIME_LAYERS]
    assert min(parts) >= 0.0
    assert sum(parts) + layers["unattributed_s"] == pytest.approx(wall)
    assert 0.0 <= layers["unattributed_s"] < 0.1 * wall
    acts = sum(r.total_activations for r in results)
    assert layers["mc.requests"] == sum(r.total_requests for r in results)
    assert layers["trackers.acts"] == acts
    assert layers["mc.rfms"] == sum(sum(r.rfms) for r in results)
    assert layers["mc.alerts"] == sum(sum(r.alerts) for r in results)
    assert layers["backend.acts"] == (acts if backend == "array" else 0)


def test_per_layer_rows_sum_to_traced_wall():
    tracer = Tracer()
    tracer.self_s.update({name: 0.5 for name in TIME_LAYERS})
    tracer.counts.update({"backend.flushes": 4, "backend.acts": 10})
    wall = 0.5 * len(TIME_LAYERS) + 0.25
    layers = tracer.layers(wall)
    layers.update({"session.computed": 1, "session.failed": 0,
                   "session.retried": 0})
    rep = {"layers": layers, "wall_s": wall, "import_s": 0.3}
    timed = {"wall_s": 4.0, "import_s": 0.3}
    values = run.per_layer([timed], [rep], [timed, rep])
    assert set(values) == set(run.PER_LAYER_UNITS)
    assert sum(values[name] for name in run.SELF_TIME_ROWS) \
        == pytest.approx(values["trace.wall_s"])
    assert values["backend.acts_per_flush"] == 2.5
    assert values["trace.overhead_s"] == pytest.approx(rep["wall_s"] - 4.0)


def test_check_counts_failures_and_mismatches(monkeypatch):
    monkeypatch.setattr(run, "load_reference",
                        lambda workload, seed: ["a", "b", run.FAILED])
    same = {"mode": "timed", "digests": ["a", "b", run.FAILED]}
    assert run.check("fuzz-sweep", 0, [same, same])[:3] == (True, 6, 2)
    wrong = {"mode": "timed", "digests": ["a", "x", run.FAILED]}
    assert run.check("fuzz-sweep", 0, [wrong])[:3] == (False, 3, 2)
    lost = {"mode": "timed", "digests": [run.FAILED, "b", run.FAILED]}
    assert run.check("fuzz-sweep", 0, [lost])[:3] == (False, 3, 2)
    monkeypatch.setattr(run, "launch", lambda *args: {
        "digests": ["a", "b", "c"]})
    fixed = {"mode": "timed", "digests": ["a", "b", "c"]}
    assert run.check("attack-tenants", 0, [fixed])[:3] == (True, 3, 0)


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.NAMES
    setup = max(m["bound"] for m in spec["end_to_end"])
    assert [m["bound"] for m in spec["end_to_end"]
            if m["name"] == "setup_s"] == [setup]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "benign-cold", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
