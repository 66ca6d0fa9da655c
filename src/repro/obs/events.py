"""Cluster event journal: a bounded, deterministic operational log.

The registry answers *how much* (counters, histograms); the journal
answers *what happened, in what order*: leader elections, shard seals,
archives, compactions, backpressure trips, chaos fault injections and
heals, workload outcomes and invariant results, alert fires/resolves.
Every entry is stamped with the virtual clock and a monotonic sequence
number, so two runs of the same seeded scenario produce byte-identical
journals: ``dump()`` is the retained ring and ``digest()`` a rolling
sha256 over every event ever emitted, the replay-equivalence check.

Entries also carry the current trace ID (when emitted under an active
tracer span), which is what lets ``explain_analyze`` and chaos replays
join journal events back to the spans that caused them.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Optional

# Kinds the alert engine emits (every other seam names its kind inline).
EVENT_ALERT_FIRE = "alert.fire"
EVENT_ALERT_RESOLVE = "alert.resolve"


@dataclass(frozen=True)
class JournalEvent:
    """One journal entry.

    ``seq`` is global and monotonic (it keeps counting even after old
    entries fall off the bounded ring, so gaps reveal truncation).
    ``trace_id`` is the root-span trace active at emit time, or None.
    """

    seq: int
    at_s: float
    kind: str
    target: str
    detail: str = ""
    tenant_id: Optional[int] = None
    trace_id: Optional[int] = None

    def format(self) -> str:
        parts = [f"#{self.seq}", f"t={self.at_s:.9f}", self.kind, self.target]
        if self.tenant_id is not None:
            parts.append(f"tenant={self.tenant_id}")
        if self.trace_id is not None:
            parts.append(f"trace={self.trace_id}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class EventJournal:
    """Bounded ring of :class:`JournalEvent`, deterministic by design.

    Timestamps come from the virtual clock (0.0 when no clock is
    attached, e.g. a noop handle), sequence numbers from a process-local
    counter — no wall clock, no ids derived from object addresses.

    The ring keeps the last ``max_events`` entries; the digest is fed
    each event's line as it is emitted, so it covers the events that
    have fallen off the ring too.
    """

    def __init__(
        self,
        clock=None,
        tracer=None,
        max_events: int = 4096,
        enabled: bool = True,
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._clock = clock
        self._tracer = tracer
        self.enabled = enabled
        self._events: deque[JournalEvent] = deque(maxlen=max_events)
        self._seq = 0
        self._digest = hashlib.sha256()

    def attach_tracer(self, tracer) -> None:
        """Late-bind the tracer (journal is built before the tracer)."""
        self._tracer = tracer

    def emit(
        self,
        kind: str,
        target: str,
        detail: str = "",
        tenant_id: Optional[int] = None,
    ) -> Optional[JournalEvent]:
        """Record one event; returns it, or None when disabled."""
        if not self.enabled:
            return None
        self._seq += 1
        trace_id = self._tracer.current_trace_id() if self._tracer else None
        event = JournalEvent(
            seq=self._seq,
            at_s=self._clock.now() if self._clock is not None else 0.0,
            kind=kind,
            target=target,
            detail=detail,
            tenant_id=tenant_id,
            trace_id=trace_id,
        )
        self._events.append(event)
        self._digest.update(f"{event.format()}\n".encode())
        return event

    # -- reads ---------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> list[JournalEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def events_for_trace(self, trace_id: int) -> list[JournalEvent]:
        return [e for e in self._events if e.trace_id == trace_id]

    def kinds(self) -> dict[str, int]:
        """Retained event counts by kind (sorted for stable dumps)."""
        out: dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    @property
    def total_emitted(self) -> int:
        """Events emitted over the journal's lifetime (incl. dropped)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def to_lines(self) -> list[str]:
        return [event.format() for event in self._events]

    def dump(self) -> str:
        """The retained journal as one deterministic text blob."""
        return "\n".join(self.to_lines()) + ("\n" if self._events else "")

    def digest(self) -> str:
        """Rolling sha256 over every emitted event's line, dropped ones
        included; equals sha256 of :meth:`dump` while nothing dropped."""
        return self._digest.hexdigest()
