"""Tests for the opt-in kernel profiling layer."""

from __future__ import annotations

from collections import OrderedDict

from repro.obs import KernelProfile, Observation, current, observing
from repro.params import SimScale
from repro.sim import runner
from repro.sim.registry import setup_by_name
from repro.sim.runner import baseline_setup, calibrated_workload, simulate


def test_inactive_by_default():
    assert current().profile is None
    assert not current().enabled


def test_profiling_scope_installs_and_restores():
    previous = current()
    with observing(profile=True) as observed:
        assert current() is observed
        assert isinstance(observed.profile, KernelProfile)
    assert current() is previous
    assert current().profile is None


def test_profiling_nests():
    with observing(profile=True) as outer:
        with observing(profile=True) as inner:
            assert current() is inner
            inner.profile.requests = 3
        assert current() is outer
    assert outer.profile.requests == 3  # folded outward on exit


def test_enabled_by_env(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    assert Observation.from_env().profile is None
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert Observation.from_env().profile is not None, value
    for value in ("", "0", "false", "off"):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert Observation.from_env().profile is None, value


def test_from_env_profile_flag_or_env(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    assert Observation.from_env(profile=True).profile is not None
    monkeypatch.setenv("REPRO_PROFILE", "1")
    with Observation.from_env() as observed:
        assert current().profile is observed.profile is not None
    assert current().profile is None


def test_simulate_populates_profile():
    scale = SimScale(8192)
    # Warm the calibration cache so the profile covers exactly one run.
    calibrated_workload("mcf", scale, seed=0)
    with observing(profile=True) as observed:
        result = simulate("mcf", setup_by_name("mirza-1000"),
                          scale, seed=0)
    prof = observed.profile
    assert prof.runs == 1
    assert prof.requests == result.total_requests > 0
    assert prof.activations == result.total_activations > 0
    assert prof.refs > 0
    assert prof.wall_s > 0
    assert prof.serve_s > 0
    assert prof.trace_s > 0
    # Sub-phases are measured inside the serve window.
    assert prof.requests_per_sec() > 0
    assert prof.acts_per_sec() > 0


def test_cold_calibration_is_not_profiled(monkeypatch):
    # A cold calibration cache runs probe windows; they must stay out
    # of the profile so cold, warm and pooled profiles agree.
    monkeypatch.setattr(runner, "_WORKLOAD_CACHE", OrderedDict())
    with observing(profile=True) as observed:
        result = simulate("tc", baseline_setup(), SimScale(2048))
    assert observed.profile.runs == 1
    assert observed.profile.requests == result.total_requests


def test_profiling_does_not_change_results():
    scale = SimScale(8192)
    setup = setup_by_name("mirza-1000")
    plain = simulate("tc", setup, scale, seed=0)
    with observing(profile=True):
        profiled = simulate("tc", setup, scale, seed=0)
    assert profiled.total_requests == plain.total_requests
    assert profiled.total_activations == plain.total_activations
    assert profiled.ipc == plain.ipc


def test_report_renders_phases():
    prof = KernelProfile()
    prof.add_run(2.0, 10 ** 12, 1000, 600)
    prof.serve_s = 1.0
    prof.refresh_s = 0.25
    prof.trackers_s = 0.25
    prof.trace_s = 0.5
    prof.refs = 42
    text = prof.report()
    assert "trace generation" in text
    assert "controller scheduling" in text
    assert "demand refresh" in text
    assert "mitigation trackers" in text
    assert "500/s" in text  # 1000 requests / 2.0s wall
    assert "42" in text
