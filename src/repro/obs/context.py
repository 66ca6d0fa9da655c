"""Observability: one handle bundling the whole obs layer.

A `LogStore` builds exactly one of these and threads it through every
subsystem (brokers, workers, shards, the write pipeline, Raft nodes,
the builder, the metered OSS).  Components constructed standalone —
the unit-test pattern — default to a private, tracing-disabled handle,
so their metric recording still works without any shared state.

The handle carries:

* ``registry``     — labeled metric families (counters/gauges/histograms)
* ``tracer``       — hierarchical virtual-clock spans
* ``slow_queries`` — bounded over-threshold query log
* ``journal``      — the cluster event journal (elections, seals,
  archives, compactions, backpressure, faults, alerts)
* ``meter``        — per-tenant usage accounting
* ``slo``          — per-tenant SLO windows / burn rates
* ``alerts``       — the alert rules engine (None until installed by
  the cluster facade via :meth:`install_alerts`)
"""

from __future__ import annotations

from repro.obs.events import EventJournal
from repro.obs.meter import UsageMeter
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Tracer

DEFAULT_SLOW_QUERY_S = 2.0  # Figure 17: "99% of queries within 2 seconds"


class Observability:
    """Registry + tracer + slow log + journal + meter + SLO tracker."""

    def __init__(
        self,
        clock=None,
        tracing_enabled: bool = True,
        slow_query_s: float | None = DEFAULT_SLOW_QUERY_S,
        event_journal_enabled: bool = True,
        slo_enabled: bool = True,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock, enabled=tracing_enabled)
        self.slow_queries = SlowQueryLog(slow_query_s)
        self.journal = EventJournal(
            clock,
            tracer=self.tracer,
            enabled=event_journal_enabled,
        )
        self.meter = UsageMeter(self.registry)
        self.slo = SloTracker(clock, enabled=slo_enabled)
        # Installed by the cluster facade once config-selected rules are
        # known; stays None for standalone components.
        self.alerts = None

    def install_alerts(self, engine) -> None:
        self.alerts = engine

    @classmethod
    def noop(cls) -> "Observability":
        """A private handle with tracing off (standalone components).

        The journal stays enabled (it is cheap and clockless emits
        stamp ``t=0``), so unit-tested components still journal; the
        SLO tracker is inert without a clock.
        """
        return cls(clock=None, tracing_enabled=False, slow_query_s=None)
