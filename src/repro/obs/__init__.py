"""Cluster-wide observability: metrics, tracing, events, SLOs, alerts."""

from repro.obs.alerts import (
    Alert,
    AlertEngine,
    BurnRateRule,
    ThresholdRule,
    default_alert_rules,
)
from repro.obs.analyze import render_explain_analyze
from repro.obs.context import DEFAULT_SLOW_QUERY_S, Observability
from repro.obs.events import EventJournal, JournalEvent
from repro.obs.meter import TenantUsage, UsageMeter
from repro.obs.recorders import PushdownRecorder, WritePathRecorder
from repro.obs.registry import (
    HistogramSnapshot,
    MetricsRegistry,
    RegistrySnapshot,
    label_key,
)
from repro.obs.report import MetricsReport
from repro.obs.slo import SloStatus, SloTarget, SloTracker
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.systables import (
    SYSTEM_TABLES,
    is_system_table,
    scope_rows,
    system_table_rows,
)
from repro.obs.tracing import Span, Tracer, format_trace, span_chain

__all__ = [
    "Alert",
    "AlertEngine",
    "BurnRateRule",
    "DEFAULT_SLOW_QUERY_S",
    "EventJournal",
    "HistogramSnapshot",
    "JournalEvent",
    "MetricsRegistry",
    "MetricsReport",
    "Observability",
    "PushdownRecorder",
    "RegistrySnapshot",
    "SYSTEM_TABLES",
    "SloStatus",
    "SloTarget",
    "SloTracker",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "TenantUsage",
    "ThresholdRule",
    "Tracer",
    "UsageMeter",
    "WritePathRecorder",
    "default_alert_rules",
    "format_trace",
    "is_system_table",
    "label_key",
    "render_explain_analyze",
    "scope_rows",
    "span_chain",
    "system_table_rows",
]
