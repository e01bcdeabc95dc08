"""Kernel profiling: per-phase wall time and throughput counters.

The simulation kernel is pure Python, so profiling must be nearly free
when off and cheap when on.  A :class:`KernelProfile` is one of the
sinks an :class:`~repro.obs.observation.Observation` can carry; the hot
classes (the system, the memory controller, the core, the device)
prefetch it at construction and accumulate wall time into named
phases:

``trace``
    Generating workload trace chunks (synthetic RNG + tuple building).
``serve``
    Total time inside ``MemoryController.serve`` -- command scheduling,
    timing fixpoints, bus booking.  Includes the two sub-phases below.
``refresh``
    Demand-refresh processing: REF blackouts, oracle sweeps, RCT reset
    (a subset of ``serve``).
``trackers``
    Per-activation mitigation-tracker bookkeeping (a subset of
    ``serve``).

Every field is additive, so profiles merge across processes in any
order (:meth:`KernelProfile.merge`).  The CLI's ``--profile`` flag
prints :meth:`KernelProfile.report` after the command finishes.

Example::

    from repro.obs import observing
    with observing(profile=True) as ob:
        simulate("tc", baseline_setup(), SimScale(512))
    print(ob.profile.report())
"""

from __future__ import annotations

PHASES = ("trace", "serve", "refresh", "trackers")


class KernelProfile:
    """Accumulated per-phase seconds and event counts for one session."""

    __slots__ = ("trace_s", "serve_s", "refresh_s", "trackers_s",
                 "wall_s", "requests", "activations", "refs",
                 "window_ps", "runs")

    def __init__(self) -> None:
        self.trace_s = 0.0
        self.serve_s = 0.0
        self.refresh_s = 0.0
        self.trackers_s = 0.0
        self.wall_s = 0.0
        self.requests = 0
        self.activations = 0
        self.refs = 0
        self.window_ps = 0
        self.runs = 0

    # ------------------------------------------------------------------
    # Accumulation (called from the hot paths when profiling)
    # ------------------------------------------------------------------
    def add_run(self, wall_s: float, window_ps: int, requests: int,
                activations: int) -> None:
        """Record one completed ``MultiCoreSystem.run`` window."""
        self.wall_s += wall_s
        self.window_ps += window_ps
        self.requests += requests
        self.activations += activations
        self.runs += 1

    # ------------------------------------------------------------------
    # Cross-process merging
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able view of every counter (the pool return payload)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "KernelProfile":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        profile = cls()
        for name in cls.__slots__:
            if name in data:
                setattr(profile, name, data[name])
        return profile

    def merge(self, other: "KernelProfile | dict") -> None:
        """Fold another profile (or its dict form) into this one.

        Every field is additive, so merging is order-independent; a
        session can fold worker profiles in completion order.
        """
        data = other if isinstance(other, dict) else other.to_dict()
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + data.get(name, 0))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def requests_per_sec(self) -> float:
        """Served requests per wall-clock second across profiled runs."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def acts_per_sec(self) -> float:
        """Issued activations per wall-clock second."""
        return self.activations / self.wall_s if self.wall_s > 0 else 0.0

    def report(self) -> str:
        """Human-readable per-phase summary table."""
        lines = ["kernel profile"
                 f" ({self.runs} run{'s' if self.runs != 1 else ''},"
                 f" {self.wall_s:.2f}s simulated-kernel wall time)"]
        scheduling = max(0.0, self.serve_s - self.refresh_s
                         - self.trackers_s)
        rows = [
            ("trace generation", self.trace_s),
            ("controller scheduling", scheduling),
            ("demand refresh", self.refresh_s),
            ("mitigation trackers", self.trackers_s),
        ]
        wall = self.wall_s or 1.0
        for label, seconds in rows:
            lines.append(f"  {label:<22} {seconds:8.3f}s"
                         f"  ({100.0 * seconds / wall:5.1f}%)")
        lines.append(f"  {'requests':<22} {self.requests:>9}"
                     f"  ({self.requests_per_sec():,.0f}/s)")
        lines.append(f"  {'activations':<22} {self.activations:>9}"
                     f"  ({self.acts_per_sec():,.0f}/s)")
        lines.append(f"  {'REF commands':<22} {self.refs:>9}")
        if self.window_ps:
            ratio = self.window_ps / 1e12 / wall
            lines.append(f"  {'sim/wall time ratio':<22} {ratio:9.2e}")
        return "\n".join(lines)
