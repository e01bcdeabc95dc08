"""Kernel-backend API tests and the event/array identity gate.

The array backend's entire value proposition is "same bits, less
time", so the core of this module is a parametrized sweep: every
mitigation family in the repository runs the same (workload, scale,
seed) window under the event backend and the array backend, and the
observable result fields must match exactly.  The registry/env/CLI
plumbing and the serial-vs-pool equivalence under the array backend
are covered around it.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.params import SimScale
from repro.sim import backend as backend_mod
from repro.sim.backend import (
    ArrayBackend,
    EventBackend,
    KernelBackend,
    available_backends,
    backend_by_name,
    default_backend_name,
    resolve_backend,
)
from repro.sim.runner import (
    MitigationSetup,
    _bank_rng,
    baseline_setup,
    mint_rfm_setup,
    mirza_setup,
    mist_setup,
    naive_mirza_setup,
    prac_setup,
    simulate,
)

SCALE = SimScale(2048)
SEED = 0

FAST_BACKENDS = ["array"]
"""The backends that must be bit-identical to ``event``."""


# ----------------------------------------------------------------------
# Registry / selection API
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert available_backends() == ["array", "event"]
    assert isinstance(backend_by_name("event"), EventBackend)
    assert isinstance(backend_by_name("array"), ArrayBackend)


def test_backends_satisfy_protocol():
    for name in available_backends():
        assert isinstance(backend_by_name(name), KernelBackend)


def test_unknown_backend_lists_known_names():
    with pytest.raises(KeyError, match="array"):
        backend_by_name("vectorised")


def test_removed_vector_backend_is_unknown():
    with pytest.raises(KeyError, match="known: array, event"):
        backend_by_name("vector")


def test_register_backend_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        backend_mod.register_backend("event", EventBackend())


def test_resolve_backend_priority(monkeypatch):
    monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
    assert resolve_backend(None).name == "event"
    assert resolve_backend("array").name == "array"
    custom = EventBackend()
    assert resolve_backend(custom) is custom
    monkeypatch.setenv(backend_mod.ENV_VAR, "array")
    assert default_backend_name() == "array"
    assert resolve_backend(None).name == "array"
    # An explicit argument still beats the environment.
    assert resolve_backend("event").name == "event"


def test_malformed_backend_env_warns_and_defaults(monkeypatch):
    monkeypatch.setenv(backend_mod.ENV_VAR, "definitely-not-a-backend")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert default_backend_name() == "event"
    assert any("REPRO_KERNEL_BACKEND" in str(w.message) for w in caught)


def test_simulate_stamps_backend_metadata(monkeypatch):
    monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
    result = simulate("tc", baseline_setup(), SimScale(8192), seed=SEED,
                      backend="array")
    assert result.backend == "array"
    result = simulate("tc", baseline_setup(), SimScale(8192), seed=SEED)
    assert result.backend == "event"


def test_backend_recorded_in_metrics_snapshot():
    from repro.obs import observing
    with observing(metrics=True) as observed:
        simulate("tc", baseline_setup(), SimScale(8192), seed=SEED,
                 backend="array")
    assert observed.metrics.snapshot()["sim.backend.array"]["value"] == 1


# ----------------------------------------------------------------------
# Bit-identity across every mitigation family
# ----------------------------------------------------------------------
def _tracker_setup(name: str, make) -> MitigationSetup:
    """An ad-hoc setup around a (seed, subch, bank) tracker factory."""
    return MitigationSetup(name=name, tracker_factory=make)


def _trr(seed, subch, bank):
    from repro.mitigations.trr import TrrTracker
    return TrrTracker(entries=28, refs_per_mitigation=4)


def _para(seed, subch, bank):
    from repro.mitigations.para import ParaTracker
    return ParaTracker(1.0 / 16, rng=_bank_rng(seed, subch, bank))


def _mithril(seed, subch, bank):
    from repro.mitigations.mithril import MithrilTracker
    return MithrilTracker(entries=2048)


def _qprac(seed, subch, bank):
    from repro.mitigations.qprac import QpracTracker
    return QpracTracker(1000)


def _hydra(seed, subch, bank):
    from repro.mitigations.hydra import HydraTracker
    return HydraTracker()


def _pride(seed, subch, bank):
    from repro.mitigations.pride import PrideTracker
    return PrideTracker(rng=_bank_rng(seed, subch, bank))


def _protrr(seed, subch, bank):
    from repro.mitigations.protrr import ProTrrTracker
    return ProTrrTracker(entries=2048)


MITIGATIONS = {
    "baseline": lambda: baseline_setup(),
    "trr": lambda: _tracker_setup("trr", _trr),
    "para": lambda: _tracker_setup("para", _para),
    "mithril": lambda: _tracker_setup("mithril", _mithril),
    "mint-rfm-1000": lambda: mint_rfm_setup(1000),
    "prac-1000": lambda: prac_setup(1000),
    "qprac-1000": lambda: _tracker_setup("qprac-1000", _qprac),
    "hydra": lambda: _tracker_setup("hydra", _hydra),
    "pride": lambda: _tracker_setup("pride", _pride),
    "protrr": lambda: _tracker_setup("protrr", _protrr),
    "naive-mirza": lambda: naive_mirza_setup(12),
    "mirza-1000": lambda: mirza_setup(1000, SCALE),
    "mist-1000": lambda: mist_setup(1000),
}


def _observed(result) -> dict:
    """Every deterministic observable of a run (goldens' field set)."""
    return {
        "total_requests": result.total_requests,
        "total_activations": result.total_activations,
        "row_hit_rate": round(result.row_hit_rate, 9),
        "alerts": result.alerts,
        "rfms": result.rfms,
        "mitigations": result.mitigations,
        "victim_rows_refreshed": result.victim_rows_refreshed,
        "demand_rows_refreshed": result.demand_rows_refreshed,
        "max_unmitigated_acts": result.max_unmitigated_acts,
        "ipc": [round(x, 9) for x in result.ipc],
        "bus_utilization": round(result.bus_utilization, 9),
    }


_EVENT_RESULTS: dict = {}
"""Per-mitigation event-backend observables, computed once and shared
by every fast backend's identity check."""


def _event_observed(name: str) -> dict:
    cached = _EVENT_RESULTS.get(name)
    if cached is None:
        setup = MITIGATIONS[name]()
        cached = _observed(
            simulate("tc", setup, SCALE, seed=SEED, backend="event"))
        _EVENT_RESULTS[name] = cached
    return cached


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("name", sorted(MITIGATIONS), ids=lambda v: v)
def test_fast_backend_bit_identical(name: str, backend: str) -> None:
    event = _event_observed(name)
    setup = MITIGATIONS[name]()  # fresh factories, fresh RNG state
    fast = simulate("tc", setup, SCALE, seed=SEED, backend=backend)
    assert event == _observed(fast), (
        f"{name}: {backend} backend diverged from the event backend")


@pytest.mark.parametrize("backend", FAST_BACKENDS)
def test_fast_backend_identical_under_attack_pressure(backend) -> None:
    """A hammering workload forces real ALERT/RFM traffic through the
    deferral machinery (the benign 'tc' cells above barely alert)."""
    from repro.cpu.trace import TraceEntry
    from repro.params import ns
    from repro.workloads import AttackWorkload

    def hammer():
        rng = random.Random(13)
        rows = [rng.randrange(4096) for _ in range(24)]
        compute = ns(0.25)
        while True:
            for row in rows:
                yield TraceEntry(compute_ps=compute, instructions=1,
                                 subchannel=0, bank=0, row=row)

    from repro.cpu.system import MultiCoreSystem
    from repro.params import SystemConfig

    def build():
        workload = AttackWorkload({0: hammer, 1: hammer}, mlp=4)
        setup = mirza_setup(1000, SCALE)
        config = SystemConfig()
        return MultiCoreSystem(
            config,
            trace_factory=workload.trace_factory(),
            tracker_factory=lambda s, b: setup.tracker_factory(SEED, s, b),
            mapping_factory=lambda: setup.make_mapping(config),
            refs_per_window=SCALE.scaled_refs_per_window(config.timings),
            mlp=workload.mlp)

    window = SCALE.scaled_trefw(SystemConfig().timings)
    event = EventBackend().run(build(), window)
    fast = backend_by_name(backend).run(build(), window)
    assert fast.alerts != [0, 0] or fast.mitigations > 0, (
        "attack failed to exercise the ALERT path; strengthen it")
    assert _observed(event) == _observed(fast)


# ----------------------------------------------------------------------
# Serial vs pool under the fast backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", FAST_BACKENDS)
def test_fast_backend_serial_vs_pool_identical(monkeypatch, backend):
    from repro.sim.session import SimJob, SimSession

    monkeypatch.setenv(backend_mod.ENV_VAR, backend)
    scale = SimScale(4096)
    jobs = [SimJob("tc", prac_setup(1000), scale, SEED),
            SimJob("mcf", mirza_setup(1000, scale), scale, SEED)]
    serial = SimSession(disk_cache=False, max_workers=1).run_many(jobs)
    pooled = SimSession(disk_cache=False, max_workers=2).run_many(jobs)
    for s, p in zip(serial, pooled):
        assert _observed(s) == _observed(p)
        assert s.backend == backend
        assert p.backend == backend
