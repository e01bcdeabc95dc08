"""Integration tests: observability through simulate/session/CLI.

Covers the guarantees docs/observability.md promises: simulations
collect into the current observation, serial and process-pool runs
produce identical metrics, events and profiles, observing never
changes results or cache hits, and the CLI emits valid Perfetto
traces.
"""

import dataclasses
import json
import os
import re

import pytest

from repro.obs import Observation, current, observing
from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import merge_snapshots
from repro.params import SimScale
from repro.sim.registry import setup_by_name
from repro.sim.runner import mirza_setup, prac_setup, simulate
from repro.sim.session import SimJob, SimSession, job_label, job_token

SCALE = SimScale(2048)  # ~16 us windows: smoke-test speed


def _jobs():
    setup = setup_by_name("mirza", SCALE)
    return [SimJob(w, setup, SCALE, seed=0) for w in ("tc", "lbm")]


@dataclasses.dataclass(frozen=True)
class FlakyAfterKernel:
    """Runs the ``tc`` job's kernel, then fails its first attempt: a
    retried job whose failed attempt did real, observed work.  A
    module-level dataclass, so pool workers unpickle it by reference."""

    marker: str

    def execute(self):
        result = _jobs()[0].execute()
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            raise OSError("transient, after the kernel ran")
        return result


class TestSimulateAttachesObservability:
    def test_off_by_default(self):
        result = simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert not current().enabled
        fields = {f.name for f in dataclasses.fields(result)}
        assert not fields & {"metrics", "trace_events", "spans"}

    def test_metrics_and_trace_attach(self):
        with observing(metrics=True, trace=True) as observed:
            result = simulate("tc", mirza_setup(1000, SCALE), SCALE)
        snapshot = observed.metrics.snapshot()
        assert snapshot["mc.requests"]["value"] > 0
        assert snapshot["mc.requests"]["value"] == result.total_requests
        assert any(e[2] == "ACT" for e in observed.trace.as_list())

    def test_env_knob_attaches_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        # Only Observation.from_env reads the knob; the library never
        # turns collection on by itself.
        simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert not current().enabled
        with Observation.from_env() as observed:
            simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert observed.metrics.snapshot()["mc.requests"]["value"] > 0
        assert observed.trace is None

    def test_bank_acts_sum_to_total_activations(self):
        with observing(metrics=True) as observed:
            result = simulate("tc", mirza_setup(1000, SCALE), SCALE)
        acts = sum(v["value"]
                   for k, v in observed.metrics.snapshot().items()
                   if k.startswith("dram.bank.acts{"))
        assert acts == result.total_activations

    def test_calibration_is_not_counted(self):
        # Two back-to-back collected runs must report identical
        # snapshots even though only the first calibrates (the probe
        # binds to no sink); a leak would skew whichever run pays it.
        with observing(metrics=True) as a:
            simulate("tc", mirza_setup(1000, SCALE), SCALE)
        with observing(metrics=True) as b:
            simulate("tc", mirza_setup(1000, SCALE), SCALE)
        assert a.metrics.snapshot() == b.metrics.snapshot()

    def test_trace_is_perfetto_valid(self):
        with observing(trace=True) as observed:
            simulate("tc", mirza_setup(1000, SCALE), SCALE)
        events = observed.trace.as_list()
        assert events
        from repro.obs.export import chrome_trace_events
        assert validate_chrome_trace(chrome_trace_events(events)) is None


PROFILE_COUNTERS = ("requests", "activations", "refs", "runs")
"""The profile fields that are simulated counts, not wall times."""


class TestSessionAggregation:
    def _run(self, workers):
        with observing(metrics=True, trace=True, profile=True) as ob:
            session = SimSession(disk_cache=False, max_workers=workers)
            results = session.run_many(_jobs())
        return ob, results

    def test_serial_and_pool_snapshots_identical(self):
        ob1, res1 = self._run(1)
        ob2, res2 = self._run(2)
        assert ob1.metrics.snapshot() == ob2.metrics.snapshot()
        assert sorted(map(tuple, ob1.trace.as_list())) == \
            sorted(map(tuple, ob2.trace.as_list()))
        counters = [{name: getattr(ob.profile, name)
                     for name in PROFILE_COUNTERS} for ob in (ob1, ob2)]
        assert counters[0] == counters[1]
        assert counters[0]["runs"] == len(res1) == len(res2)

    def test_session_snapshot_equals_merged_results(self):
        ob, results = self._run(2)
        alone = []
        for job in _jobs():
            with observing(metrics=True) as single:
                job.execute()
            alone.append(single.metrics.snapshot())
        assert merge_snapshots(alone) == ob.metrics.snapshot()

    def test_failed_attempt_is_dropped_on_both_paths(self, tmp_path):
        # The failed attempt ran the whole tc kernel before raising; its
        # observation must be dropped in-process exactly as it is when
        # a worker raises, so both paths count only the retry.
        def snapshot(workers, first):
            with observing(metrics=True) as ob:
                SimSession(disk_cache=False).run_many(
                    [first, _jobs()[1]], max_workers=workers,
                    max_retries=1)
            return ob.metrics.snapshot()

        serial = snapshot(1, FlakyAfterKernel(str(tmp_path / "serial")))
        pooled = snapshot(2, FlakyAfterKernel(str(tmp_path / "pooled")))
        clean = snapshot(1, _jobs()[0])
        assert serial == pooled
        assert serial["session.jobs_retried"]["value"] == 1
        assert {key: value for key, value in serial.items()
                if not key.startswith("session.")} == clean

    def test_pooled_batch_runs_an_untokened_job_in_process(self):
        tc, lbm = _jobs()
        factory = prac_setup(1000).tracker_factory
        opaque = SimJob("tc", dataclasses.replace(
            prac_setup(1000),
            tracker_factory=lambda seed, subch, bank: factory(
                seed, subch, bank)), SCALE)
        assert job_token(opaque) is None
        session = SimSession(disk_cache=False, max_workers=2)
        with observing(trace=True) as ob:
            results = session.run_many([tc, opaque, lbm])
        expected = SimSession(disk_cache=False).run_many(
            [tc, SimJob("tc", prac_setup(1000), SCALE), lbm])
        assert results == expected
        assert results[0] != results[1]
        # Never cached: only the two tokened results are memoised, and
        # a rerun computes the untokened job again.
        assert len(session._memory) == 2
        session.run_many([opaque])
        assert session.last_batch.computed == 1
        assert session.last_batch.cache_hits == 0
        cells = [span[4]["disposition"] for span in ob.spans.as_list()
                 if span[1] == f"cell:{job_label(opaque)}"]
        assert cells == ["computed"]

    def test_pool_profiles_merge_into_parent(self):
        from repro.obs import KernelProfile
        with observing(profile=True) as observed:
            session = SimSession(disk_cache=False, max_workers=2)
            results = session.run_many(_jobs())
        prof = observed.profile
        assert isinstance(prof, KernelProfile)
        # Counted in the workers; their cold calibrations are not.
        assert prof.requests == sum(r.total_requests for r in results)
        assert prof.runs == 2

    def test_observing_never_changes_cache_hits(self, tmp_path):
        jobs = _jobs()
        SimSession(cache_dir=str(tmp_path), max_workers=1).run_many(jobs)

        def warm_stats(**request):
            session = SimSession(cache_dir=str(tmp_path), max_workers=1)
            with observing(**request) as observed:
                results = session.run_many(jobs)
            return session.stats, results, observed

        plain_stats, plain, _ = warm_stats()
        stats, observed_results, observed = warm_stats(metrics=True,
                                                       trace=True)
        assert stats == plain_stats
        assert stats["disk_hits"] == len(jobs)
        assert stats["misses"] == 0
        assert observed_results == plain
        # A hit describes no computation: its cell span is all the
        # observation gets.
        assert observed.trace.as_list() == []
        assert {s[4]["disposition"] for s in observed.spans.as_list()
                if s[1].startswith("cell:")} == {"cache-hit"}
        assert not any(key.startswith("mc.")
                       for key in observed.metrics.snapshot())


class TestProfileMergePrimitives:
    def test_to_from_dict_round_trip(self):
        from repro.obs import KernelProfile
        prof = KernelProfile()
        prof.requests = 7
        prof.wall_s = 1.5
        clone = KernelProfile.from_dict(prof.to_dict())
        assert clone.to_dict() == prof.to_dict()

    def test_merge_is_additive(self):
        from repro.obs import KernelProfile
        a, b = KernelProfile(), KernelProfile()
        a.requests = 2
        b.requests = 3
        a.merge(b)
        assert a.requests == 5
        a.merge(b.to_dict())
        assert a.requests == 8


class TestCliObservability:
    @pytest.fixture(autouse=True)
    def _fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIME_SCALE", "2048")

    def test_stats_prints_metrics_table(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["stats", "tc", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "dram.bank.acts" in out
        assert "mc.requests" in out
        assert "mc.latency_ps" in out

    def test_run_setup_trace_out_writes_valid_trace(self, tmp_path,
                                                    capsys):
        from repro.__main__ import main as cli_main
        target = tmp_path / "trace.json"
        assert cli_main(["run", "tc", "--setup", "mirza",
                         "--trace-out", str(target),
                         "--no-cache"]) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) is None
        lanes = {(e["pid"], e["tid"])
                 for e in payload["traceEvents"] if e["ph"] != "M"}
        assert len(lanes) > 2  # per-bank lanes, not one flat track

    def test_trace_subcommand_jsonl_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        from repro.obs.export import read_jsonl
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        assert cli_main(["trace", "tc", "--trace-out", str(chrome),
                         "--jsonl-out", str(jsonl),
                         "--no-cache"]) == 0
        events = read_jsonl(str(jsonl))
        assert events
        from repro.obs.export import chrome_trace_events
        assert validate_chrome_trace(chrome_trace_events(events)) is None

    def test_unknown_setup_fails_cleanly(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["stats", "tc", "--setup", "nope"]) == 2
        assert "unknown setup" in capsys.readouterr().err


class TestCliSessionSpans:
    @pytest.fixture(autouse=True)
    def _fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIME_SCALE", "2048")

    def test_trace_out_carries_session_spans(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        from repro.obs.export import SPAN_PIDS
        target = tmp_path / "trace.json"
        assert cli_main(["run", "tc", "lbm", "--setup", "mirza",
                         "--trace-out", str(target), "--jobs", "2",
                         "--no-cache"]) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) is None
        cells = [e for e in payload["traceEvents"]
                 if e.get("pid") == SPAN_PIDS["session"]
                 and e.get("ph") == "X"
                 and e["name"].startswith("cell:")]
        # Every executed cell appears exactly once, with a disposition.
        assert sorted(e["name"] for e in cells) == [
            "cell:lbm/mirza-1000", "cell:tc/mirza-1000"]
        assert all(e["args"]["disposition"] == "computed"
                   for e in cells)
        kernels = [e for e in payload["traceEvents"]
                   if e.get("pid") == SPAN_PIDS["worker"]
                   and e.get("ph") == "X"
                   and e["name"].startswith("kernel:")]
        assert len(kernels) == 2

    def test_stats_includes_session_gauges(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["stats", "tc", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "session.cache.hit_rate" in out
        assert "session.pool.utilization" in out
        assert "session.queue_depth" in out

    def test_stats_without_metrics_exits_nonzero(self, monkeypatch,
                                                 capsys):
        from repro.__main__ import main as cli_main
        # Every job fails permanently -> no result carries metrics.
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        status = cli_main(["stats", "tc", "--no-cache",
                           "--max-retries", "0", "--keep-going"])
        assert status == 3
        assert "no metrics were recorded" in capsys.readouterr().err

    def test_progress_flag_renders_line(self, capsys):
        from repro.__main__ import main as cli_main
        assert cli_main(["run", "tc", "--setup", "mirza",
                         "--progress", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "[1/1] 100%" in err
        assert "hits 0%" in err

    def test_report_trace_out_writes_valid_span_trace(self, tmp_path,
                                                      monkeypatch,
                                                      capsys):
        import repro.report as report_mod
        from repro.__main__ import main as cli_main
        from repro.obs.export import SPAN_PIDS
        monkeypatch.setattr(
            report_mod, "EXHIBITS",
            [e for e in report_mod.EXHIBITS if e[2] == "table2"])
        out_md = tmp_path / "report.md"
        target = tmp_path / "trace.json"
        assert cli_main(["report", str(out_md), "--only", "table2",
                         "--trace-out", str(target),
                         "--no-cache"]) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) is None
        assert any(e.get("pid") == SPAN_PIDS["session"]
                   and e.get("name") == "run_many"
                   for e in payload["traceEvents"])


class TestCliCacheRule:
    def test_observing_a_warm_report_changes_nothing(self, tmp_path,
                                                     capsys):
        from repro.__main__ import main as cli_main
        from repro.obs.export import SPAN_PIDS
        common = ["report", "--only", "table6", "--cgf-scale", "512",
                  "--workloads", "tc", "--cache-dir", str(tmp_path)]
        assert cli_main(common + [str(tmp_path / "cold.md")]) == 0
        assert cli_main(common + [str(tmp_path / "plain.md")]) == 0
        trace = tmp_path / "trace.json"
        assert cli_main(common + [str(tmp_path / "observed.md"),
                                  "--metrics",
                                  "--trace-out", str(trace)]) == 0

        def report(name):
            text = (tmp_path / name).read_text()
            return re.sub(r"wall time [0-9.]+s", "wall time -", text)

        assert "(0% hit rate)" in report("cold.md")
        assert "100% hit rate" in report("plain.md")
        assert report("observed.md") == report("plain.md")
        events = json.loads(trace.read_text())["traceEvents"]
        cells = [e for e in events if e.get("pid") == SPAN_PIDS["session"]
                 and e["name"].startswith("cell:")]
        assert cells
        assert {e["args"]["disposition"] for e in cells} == {"cache-hit"}
        assert not any(e["name"].startswith("kernel:") for e in events)
