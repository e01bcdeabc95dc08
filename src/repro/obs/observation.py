"""One observation model: what a scope measures, and where it lands.

An :class:`Observation` carries up to three optional sinks:

- ``metrics`` -- a :class:`~repro.obs.metrics.MetricsRegistry`;
- ``trace`` plus ``spans`` -- a :class:`~repro.obs.trace.TraceBuffer`
  of simulated-time kernel events and a
  :class:`~repro.obs.spans.SpanRecorder` of wall-clock spans, always
  on together;
- ``profile`` -- a :class:`~repro.obs.profile.KernelProfile`.

Exactly one observation is current at a time (this module's slot).
The hot classes read it once, at construction, and prefetch its sinks,
so the off path costs one ``None`` check per event.  Entering an
observation (``with observing(metrics=True) as ob:``) makes it current;
leaving it restores the previous one and folds everything collected
into it, so nested scopes aggregate outward.  :func:`suppressed` makes
an empty observation current, which hides the caller's sinks from work
that must not be counted (calibration probes).

Observations cross process boundaries as plain data: a pool worker runs
its job under ``observing(**request)``, where ``request`` is the
parent's :meth:`Observation.request`, and returns
:meth:`Observation.payload`; the parent folds it in with
:meth:`Observation.merge`.  Serial and pooled runs therefore collect
the same totals.

:meth:`Observation.from_env` is the only reader of ``REPRO_METRICS``
and ``REPRO_PROFILE``; the CLI and the kernel benchmark call it, the
library never does.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import KernelProfile
from repro.obs.spans import SpanRecorder
from repro.obs.trace import DEFAULT_LIMIT, TraceBuffer

_TRUTHY = ("1", "true", "yes", "on")


def _env_on(var: str) -> bool:
    return os.environ.get(var, "").strip().lower() in _TRUTHY


class Observation:
    """The sinks one scope collects into (``None`` = not observed)."""

    __slots__ = ("metrics", "trace", "spans", "profile", "_previous")

    def __init__(self, metrics: bool = False, trace: bool = False,
                 profile: bool = False,
                 trace_limit: Optional[int] = None) -> None:
        self.metrics = MetricsRegistry() if metrics else None
        self.trace = TraceBuffer(trace_limit or DEFAULT_LIMIT) \
            if trace else None
        self.spans = SpanRecorder() if trace else None
        self.profile = KernelProfile() if profile else None
        self._previous: Optional[Observation] = None

    @classmethod
    def from_env(cls, metrics: bool = False, trace: bool = False,
                 profile: bool = False,
                 trace_limit: Optional[int] = None) -> "Observation":
        """The flags, each also switched on by its environment knob
        (``REPRO_METRICS``, ``REPRO_PROFILE``)."""
        return cls(metrics or _env_on("REPRO_METRICS"), trace,
                   profile or _env_on("REPRO_PROFILE"), trace_limit)

    @property
    def enabled(self) -> bool:
        """True when any sink is on."""
        return (self.metrics is not None or self.trace is not None
                or self.profile is not None)

    def request(self) -> Dict[str, Any]:
        """Keyword arguments of :func:`observing` for an observation
        collecting what this one does (the pool payload's half)."""
        return {"metrics": self.metrics is not None,
                "trace": self.trace is not None,
                "profile": self.profile is not None,
                "trace_limit": self.trace.limit
                if self.trace is not None else None}

    def payload(self) -> Dict[str, Any]:
        """Everything collected, as picklable, JSON-able data."""
        trace, spans = self.trace, self.spans
        return {
            "metrics": self.metrics.snapshot()
            if self.metrics is not None else None,
            "trace": trace.as_list() if trace is not None else None,
            "trace_dropped": trace.dropped if trace is not None else 0,
            "spans": spans.as_list() if spans is not None else None,
            "spans_dropped": spans.dropped if spans is not None else 0,
            "profile": self.profile.to_dict()
            if self.profile is not None else None,
        }

    def merge(self, payload: Dict[str, Any]) -> None:
        """Fold another observation's :meth:`payload` into the sinks
        this one has (the others' data is dropped)."""
        if self.metrics is not None and payload["metrics"]:
            self.metrics.merge_snapshot(payload["metrics"])
        if self.trace is not None and payload["trace"] is not None:
            self.trace.extend(payload["trace"])
            self.trace.dropped += payload["trace_dropped"]
        if self.spans is not None and payload["spans"] is not None:
            self.spans.extend(payload["spans"])
            self.spans.dropped += payload["spans_dropped"]
        if self.profile is not None and payload["profile"]:
            self.profile.merge(payload["profile"])

    @contextmanager
    def span(self, track: str, name: str,
             meta: Optional[Dict] = None) -> Iterator[Dict]:
        """Record the block as one span when tracing; yields the meta
        dict either way, so the body can attach attributes."""
        if self.spans is None:
            yield {}
            return
        with self.spans.span(track, name, meta) as attrs:
            yield attrs

    def __enter__(self) -> "Observation":
        global _ACTIVE
        self._previous, _ACTIVE = _ACTIVE, self
        return self

    def __exit__(self, *exc: object) -> None:
        global _ACTIVE
        _ACTIVE, self._previous = self._previous, None
        if self.enabled and _ACTIVE.enabled:
            _ACTIVE.merge(self.payload())


_ACTIVE = Observation()
"""The current observation; an empty one when nothing is observed."""


def current() -> Observation:
    """The current observation (hot classes read it at construction)."""
    return _ACTIVE


def observing(metrics: bool = False, trace: bool = False,
              profile: bool = False,
              trace_limit: Optional[int] = None) -> Observation:
    """A fresh observation to scope over a ``with`` block::

        with observing(metrics=True, trace=True) as ob:
            simulate("tc", mirza_setup(1000), SimScale(512))
        print(ob.metrics.snapshot()["abo.alerts"])
    """
    return Observation(metrics, trace, profile, trace_limit)


def suppressed() -> Observation:
    """An empty observation: its scope hides every enclosing sink."""
    return Observation()
