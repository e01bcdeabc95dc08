"""``repro.obs``: structured observability for the simulation kernel.

One model, :class:`~repro.obs.observation.Observation`, scopes every
kind of collection (see ``docs/observability.md``).  Its sinks live in:

- :mod:`repro.obs.metrics` -- a registry of counters, gauges, and
  fixed-bucket histograms the hot layers are instrumented with.
- :mod:`repro.obs.trace` -- a bounded ring buffer of typed events
  (ACT/REF/RFM/ALERT/stall/mitigation) with picosecond timestamps.
- :mod:`repro.obs.spans` -- wall-clock spans over batch execution
  (one per ``run_many``, per cell with its disposition, per kernel
  run and per cold calibration), with a live progress line in
  :mod:`repro.obs.progress`.  Spans are recorded whenever the event
  trace is.
- :mod:`repro.obs.profile` -- per-phase kernel wall time and
  throughput counters.
- :mod:`repro.obs.export` -- JSONL and Chrome trace-event exporters,
  so a run opens directly in Perfetto with per-bank kernel lanes and
  session/worker span tracks.

Everything is off by default and costs one ``None`` check per event
when off.  Turn collection on with the CLI's ``--metrics`` /
``--profile`` / ``--trace-out`` flags or programmatically::

    from repro.obs import observing, write_chrome_trace
    from repro.sim import simulate, mirza_setup
    from repro.params import SimScale

    with observing(metrics=True, trace=True) as ob:
        simulate("tc", mirza_setup(1000), SimScale(512))
    print(ob.metrics.snapshot()["abo.alerts"])
    write_chrome_trace(ob.trace.as_list(), "trace.json",
                       spans=ob.spans.as_list())

Collection binds at system construction (metric objects are prefetched
into the hot classes), so enter the scope *before* building the system
-- :func:`repro.sim.runner.simulate` builds inside it for you.  An
observation describes computation only: a result served from the
session cache contributes its ``cell:`` span and nothing else.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_span_events,
    chrome_trace_events,
    read_jsonl,
    sanitize_span_records,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    metric_key,
    split_key,
)
from repro.obs.observation import (
    Observation,
    current,
    observing,
    suppressed,
)
from repro.obs.profile import PHASES, KernelProfile
from repro.obs.report import render_metrics_report
from repro.obs.spans import SPAN_NAMES, SpanRecorder
from repro.obs.trace import CHANNEL_LANE, EVENT_NAMES, TraceBuffer

__all__ = [
    "CHANNEL_LANE",
    "Counter",
    "EVENT_NAMES",
    "Gauge",
    "Histogram",
    "KernelProfile",
    "MetricsRegistry",
    "Observation",
    "PHASES",
    "SPAN_NAMES",
    "SpanRecorder",
    "TraceBuffer",
    "chrome_span_events",
    "chrome_trace_events",
    "current",
    "merge_snapshots",
    "metric_key",
    "observing",
    "read_jsonl",
    "render_metrics_report",
    "sanitize_span_records",
    "split_key",
    "suppressed",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
