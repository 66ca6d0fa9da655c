"""Virtual-clock tracer: hierarchical spans over the simulated time base.

A span records *where* a request spent its virtual time:

* ``broker.query → shard.scan → oss.get / cache.hit`` on the read path,
* ``broker.write → group_commit → raft.replicate → wal.flush`` on the
  quorum-acked write path,

with attributes (tenant, shard, block id, bytes) attached at each level.

Timing under the deferred-clock wave model
------------------------------------------
Components charge virtual time either by calling ``clock.sleep``
directly (the span sees it as ``end_s - start_s``) or inside a
``clock.deferred()`` block, where sleeps are *collected* without
advancing ``now()`` and charged once as a concurrent wave.  Spans that
wrap deferred work therefore carry an explicit ``charged_s`` credit —
instrumentation calls ``span.charge(charges.total)`` (or the wave
elapsed) after the block — and ``duration_s`` is wall delta plus
charges.  The tracer itself never touches the clock, so tracing adds
zero virtual time (the overhead benchmark asserts this).

Everything is deterministic under the virtual clock: ``format_trace``
output is stable across runs and usable as a golden test.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed operation, possibly with nested child spans."""

    name: str
    attrs: dict[str, object] = field(default_factory=dict)
    start_s: float = 0.0
    end_s: float | None = None
    charged_s: float = 0.0
    children: list["Span"] = field(default_factory=list)
    events: list[tuple[str, dict[str, object]]] = field(default_factory=list)
    # Monotonic per-tracer id assigned to root spans and inherited by
    # children; journal events emitted while the trace is open carry it,
    # which is how explain_analyze joins journal entries to a query.
    trace_id: int | None = None

    @property
    def duration_s(self) -> float:
        """Virtual seconds spent in this span (wall delta + explicit
        charges from deferred-clock blocks)."""
        end = self.end_s if self.end_s is not None else self.start_s
        return (end - self.start_s) + self.charged_s

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def charge(self, seconds: float) -> None:
        """Credit virtual time that did not advance the clock (deferred
        wave charges)."""
        self.charged_s += seconds

    def event(self, name: str, **attrs) -> None:
        """A point-in-time annotation inside the span."""
        self.events.append((name, dict(attrs)))

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]


class _NoopSpan:
    """Stand-in when tracing is disabled: absorbs the span API."""

    __slots__ = ()

    name = ""
    attrs: dict[str, object] = {}
    children: list = []
    duration_s = 0.0
    trace_id = None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def charge(self, seconds: float) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


# What a disabled tracer's ``span()`` returns: enters as NOOP_SPAN.
_NOOP_SCOPE = nullcontext(NOOP_SPAN)


class _SpanScope:
    """``with tracer.span(...)``: opens the span on entry and, on exit,
    files it under its parent or, for a root, in the tracer's ring."""

    __slots__ = ("_tracer", "_span", "_parent")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer, self._span = tracer, span

    def __enter__(self) -> Span:
        tracer, span = self._tracer, self._span
        span.start_s = tracer._clock.now()
        stack = tracer._stack
        parent = self._parent = stack[-1] if stack else None
        if parent is None:
            tracer._trace_seq += 1
        span.trace_id = tracer._trace_seq if parent is None else parent.trace_id
        stack.append(span)
        return span

    def __exit__(self, *exc_info) -> None:
        tracer, span, parent = self._tracer, self._span, self._parent
        span.end_s = tracer._clock.now()
        tracer._stack.pop()
        if parent is not None:
            parent.children.append(span)
        else:
            if len(tracer._traces) == tracer._traces.maxlen:
                tracer.dropped_traces += 1
            tracer._traces.append(span)


class Tracer:
    """Builds hierarchical spans against a virtual clock.

    ``span()`` is a context manager; spans opened while another span is
    active nest under it.  Completed root spans are kept in a bounded
    ring (``max_traces``) for inspection — ``last_trace()``,
    ``find_spans()`` — and dumping via :func:`format_trace`.

    A disabled tracer hands out a shared no-op span so hot paths pay a
    single ``if`` and no allocations.
    """

    def __init__(self, clock=None, enabled: bool = True, max_traces: int = 256) -> None:
        self._clock = clock
        self.enabled = enabled and clock is not None
        self._stack: list[Span] = []
        self._traces: deque[Span] = deque(maxlen=max_traces)
        self.dropped_traces = 0
        self._trace_seq = 0

    def span(self, name: str, **attrs) -> "_SpanScope | nullcontext":
        """A span named ``name`` under the innermost open one, as a
        context manager that enters as the span."""
        return _SpanScope(self, Span(name, attrs)) if self.enabled else _NOOP_SCOPE

    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def current_trace_id(self) -> int | None:
        """Trace id of the open root span, or None outside any span."""
        return self._stack[-1].trace_id if self._stack else None

    def event(self, name: str, **attrs) -> None:
        """Attach an event to the current span (no-op outside spans)."""
        current = self.current()
        if current is not None:
            current.event(name, **attrs)

    def traces(self) -> list[Span]:
        """Completed root spans, oldest first."""
        return list(self._traces)

    def last_trace(self, name: str | None = None) -> Span | None:
        """Most recent completed root span (optionally by name)."""
        for span in reversed(self._traces):
            if name is None or span.name == name:
                return span
        return None

    def find_spans(self, name: str) -> list[Span]:
        """Every span with ``name`` across all retained traces."""
        found: list[Span] = []
        for root in self._traces:
            found.extend(root.find_all(name))
        return found

    def reset(self) -> None:
        self._traces.clear()
        self.dropped_traces = 0


def _format_attrs(attrs: dict[str, object]) -> str:
    if not attrs:
        return ""
    body = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f" [{body}]"


def format_trace(span: Span, indent: int = 0) -> str:
    """Deterministic indented dump of a span tree.

    ::

        broker.write 0.004500s [tenant=1]
          group_commit 0.000000s [shard=0]
            raft.replicate 0.004500s
              wal.flush 0.002000s
    """
    pad = "  " * indent
    lines = [f"{pad}{span.name} {span.duration_s:.6f}s{_format_attrs(span.attrs)}"]
    for name, attrs in span.events:
        lines.append(f"{pad}  @ {name}{_format_attrs(attrs)}")
    for child in span.children:
        lines.append(format_trace(child, indent + 1))
    return "\n".join(lines)


def span_chain(root: Span, names: list[str]) -> bool:
    """True if ``names`` appear as an ancestor chain inside ``root``
    (intermediate spans between the named levels are allowed)."""
    if not names:
        return True
    for span in root.walk():
        if span.name == names[0]:
            if len(names) == 1:
                return True
            if any(span_chain(child, names[1:]) for child in span.children):
                return True
    return False
