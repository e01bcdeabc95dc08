"""Per-layer self times, recorded from outside the program.

:class:`Tracer` replaces a fixed set of public entry points with timing
wrappers (class attributes and the one module global the runner looks
up), so the program source is untouched.  Wrappers keep a stack of open
frames: a frame's *self time* is its duration minus the time of the
frames it opened, so the self times of all layers, plus whatever no
wrapper covers (``unattributed_s``), add up to the traced wall time.

``calibrated_workload`` is *opaque*: its probe simulations run the
same controller, trace and CPU code as the measured window, and are
charged to ``calibration.s`` in full rather than to those rows.
Wrappers must be installed before any system is built, because some
objects bind methods at construction.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

TIME_LAYERS = (
    "calibration.s",
    "workloads.trace_s",
    "address_space.build_s",
    "cpu.self_s",
    "mc.serve_s",
    "mc.refresh_s",
    "trackers.s",
    "backend.flush_s",
    "security.harness_s",
    "session.overhead_s",
    "session.cache_write_s",
)
"""Layers whose self times the wrappers record (all in seconds)."""

COUNTS = (
    "calibration.calls",
    "workloads.chunks",
    "address_space.builds",
    "mc.requests",
    "mc.refs",
    "mc.alerts",
    "mc.rfms",
    "trackers.acts",
    "trackers.mitigations",
    "backend.flushes",
    "backend.acts",
    "security.harness_acts",
)
"""Work counted at the same boundaries (outermost frame per layer)."""

TRACKER_METHODS = ("on_activate", "on_activates", "on_activates_array",
                   "on_ref_slice", "on_mitigation_slot")
"""Tracker bookkeeping entry points.  ``wants_alert``/``alert_slack``
are polled on every ACT and stay unwrapped; their cost lands in the
caller's self time."""

_JOB = "job"
"""Frames of ``execute`` methods: their self time (system
construction, result collection) is left to ``unattributed_s``."""

CountFn = Callable[["Tracer", tuple, object], None]


def _bump(name: str, amount: Callable[[tuple, object], int]
          = lambda args, result: 1) -> CountFn:
    def count(tracer: "Tracer", args: tuple, result: object) -> None:
        tracer.counts[name] += amount(args, result)
    return count


def _tracker_count(name: str) -> Optional[CountFn]:
    if name == "on_activate":
        return _bump("trackers.acts")
    if name in ("on_activates", "on_activates_array"):
        return _bump("trackers.acts", lambda args, result: len(args[1]))
    if name == "on_mitigation_slot":
        return _bump("trackers.mitigations",
                     lambda args, result: len(result or ()))
    return None


def _count_flush(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["backend.flushes"] += 1
    tracer.counts["backend.acts"] += len(args[2])


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every class deriving from it, each once."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    """Installs the wrappers; accumulates self times and counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in
                                         TIME_LAYERS + (_JOB,)}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        self._depth: Dict[str, int] = {layer: 0 for layer in self.self_s}
        self._stack: List[List[float]] = [[0.0]]
        self._opaque = 0
        self._patches: List[tuple] = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, owner: object, attr: str, layer: str,
              count: Optional[CountFn] = None,
              opaque: bool = False) -> None:
        fn = vars(owner)[attr]
        tracer = self
        stack = self._stack
        depth = self._depth
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            outer = depth[layer] == 0
            depth[layer] += 1
            if opaque:
                tracer._opaque += 1
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                depth[layer] -= 1
                if opaque:
                    tracer._opaque -= 1
                if count is not None and outer:
                    count(tracer, args, result)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _count_only(self, owner: type, attr: str, count: CountFn) -> None:
        fn = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not tracer._opaque:
                count(tracer, args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import repro.core  # noqa: F401  (registers MIRZA trackers)
        import repro.mitigations  # noqa: F401
        from repro.cpu.system import MultiCoreSystem
        from repro.cpu.trace import ChunkSource
        from repro.dram.device import DramDevice
        from repro.dram.mapping import AddressSpaceSpec
        from repro.mc.controller import MemoryController
        from repro.mitigations.base import BankTracker
        from repro.security.attacks import SingleBankHarness
        from repro.security.fuzz import FuzzJob
        from repro.sim import runner
        from repro.sim.session import SimJob, SimSession, TenantJob
        from repro.workloads.tenants import TranslatedChunkSource

        self._wrap(SimSession, "run_many", "session.overhead_s")
        self._wrap(SimSession, "_store", "session.cache_write_s")
        for job_type in (SimJob, TenantJob, FuzzJob):
            self._wrap(job_type, "execute", _JOB)
        self._wrap(runner, "calibrated_workload", "calibration.s",
                   _bump("calibration.calls"), opaque=True)
        for source in (ChunkSource, TranslatedChunkSource):
            for attr in ("next_chunk", "next_chunk_array"):
                self._wrap(source, attr, "workloads.trace_s",
                           _bump("workloads.chunks"))
        self._wrap(AddressSpaceSpec, "build", "address_space.build_s",
                   _bump("address_space.builds"))
        self._wrap(MultiCoreSystem, "drive", "cpu.self_s")
        self._wrap(MemoryController, "serve_timing", "mc.serve_s",
                   _bump("mc.requests"))
        self._wrap(MemoryController, "process_refreshes", "mc.refresh_s")
        self._count_only(DramDevice, "do_ref", _bump("mc.refs"))
        self._count_only(DramDevice, "service_alert", _bump("mc.alerts"))
        self._count_only(DramDevice, "rfm", _bump("mc.rfms"))
        for attr in ("apply_activations", "apply_activations_array"):
            self._wrap(DramDevice, attr, "backend.flush_s", _count_flush)
        for cls in _subclasses(BankTracker):
            for attr in TRACKER_METHODS:
                if attr in vars(cls):
                    self._wrap(cls, attr, "trackers.s",
                               _tracker_count(attr))
        # One harness per FuzzJob, so its ACT total after run() is the
        # work that call did (counted also when the stream raises).
        self._wrap(SingleBankHarness, "run", "security.harness_s",
                   _bump("security.harness_acts",
                         lambda args, result: args[0].acts))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def layers(self, wall_s: float) -> Dict[str, float]:
        """Self time per layer and counts; ``unattributed_s`` closes
        the sum to ``wall_s``."""
        out: Dict[str, float] = {layer: self.self_s[layer]
                                 for layer in TIME_LAYERS}
        out["unattributed_s"] = wall_s - sum(out.values())
        out.update(self.counts)
        return out
