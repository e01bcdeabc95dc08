"""The structured event trace: a bounded ring buffer of typed events.

An event is a plain 5-element list::

    [ts_ps, ph, name, subch, bank]

``ts_ps``
    Simulated time in integer picoseconds (never wall clock, so traces
    are deterministic and byte-identical across processes).
``ph``
    The phase, Chrome-trace style: ``"I"`` for an instant event,
    ``"B"``/``"E"`` for the begin/end of a window (ABO stalls, REF
    blackouts, RFM stalls).
``name``
    The event type -- see :data:`EVENT_NAMES` for the taxonomy.
``subch`` / ``bank``
    The lane.  ``bank = -1`` means a channel-wide event (stalls,
    ALERTs, REF); Perfetto renders each (subchannel, bank) pair as its
    own track.

The buffer is a ``deque`` with a hard length cap (``--trace-limit``
or :data:`DEFAULT_LIMIT`): a long run keeps the *newest* events and
counts what it dropped, so tracing can stay on for arbitrarily large
windows without unbounded memory.  A buffer is one of the sinks an
:class:`~repro.obs.observation.Observation` carries; hot classes
prefetch it at construction, so the off path is a single ``None``
check.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

DEFAULT_LIMIT = 200_000
"""Default ring-buffer capacity (events)."""

CHANNEL_LANE = -1
"""``bank`` value for channel-wide events (stalls, ALERT, REF)."""

EVENT_NAMES = {
    "ACT": "row activation issued (instant, bank lane)",
    "REF": "demand-refresh blackout (B/E window, channel lane)",
    "RFM": "refresh-management stall (B/E window, bank lane)",
    "DRFM": "directed-RFM batch stall (B/E window, channel lane)",
    "ALERT": "device asserted ALERT (instant, channel lane)",
    "STALL": "ABO stall window (B/E window, channel lane)",
    "MITIGATE": "tracker mitigated an aggressor (instant, bank lane)",
    "FLUSH": "array backend landed a deferred ACT run "
             "(B/E window -- or instant for one-ACT runs -- bank lane)",
}
"""The event taxonomy: name -> meaning (see docs/observability.md)."""


class TraceBuffer:
    """Bounded ring of events; appends drop the oldest when full."""

    __slots__ = ("events", "limit", "dropped")

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("trace limit must be >= 1")
        self.limit = limit
        self.events: Deque[List] = deque(maxlen=limit)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, ts_ps: int, ph: str, name: str, subch: int = 0,
             bank: int = CHANNEL_LANE) -> None:
        """Append one event (hot path when tracing is on)."""
        events = self.events
        if len(events) == self.limit:
            self.dropped += 1
        events.append([ts_ps, ph, name, subch, bank])

    def instant(self, ts_ps: int, name: str, subch: int = 0,
                bank: int = CHANNEL_LANE) -> None:
        self.emit(ts_ps, "I", name, subch, bank)

    def window(self, start_ps: int, end_ps: int, name: str,
               subch: int = 0, bank: int = CHANNEL_LANE) -> None:
        """Emit a paired ``B``/``E`` window."""
        self.emit(start_ps, "B", name, subch, bank)
        self.emit(end_ps, "E", name, subch, bank)

    def extend(self, events: List[List]) -> None:
        """Fold another buffer's event list in (ring cap still applies)."""
        for event in events:
            self.emit(event[0], event[1], event[2], event[3], event[4])

    def as_list(self) -> List[List]:
        """The buffered events as a plain list (oldest first)."""
        return [list(event) for event in self.events]
