"""MetricsRegistry: labeled counters, gauges and histograms (§4.1.3).

The paper's traffic-control loop is driven by "runtime traffic or load
metrics of tenants, shards, and workers", and its whole evaluation is
metric readouts.  This registry is the single place those metrics live:

* every instrument is **labeled** (``tenant=…``, ``shard=…``,
  ``worker=…``), so per-tenant accounting — the thing a multi-tenant
  store lives or dies by — falls out of the label sets instead of
  per-subsystem dataclasses threaded by hand;
* a registry can be **snapshotted** into plain data and snapshots
  **merge**, which is how a broker aggregates worker-side registries
  without sharing mutable state;
* snapshots export as Prometheus-style text exposition and as JSON, so
  the same numbers feed the ``BENCH_*.json`` trajectory files and a
  human ``curl``-style dump.

The instruments themselves live here too: lock-guarded counters and
gauges and a bounded-reservoir histogram.  A subsystem holds the live
child a family hands out and records on it directly.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from repro.common.utils import percentile

class Counter:
    """A monotonically increasing counter with windowed deltas.

    Thread safety: ``add`` may run concurrently (the builder thread pool
    and the broker both touch shared counters), so increments and window
    reads are guarded by a lock.

    Windowing contract: the counter keeps exactly **one** window cursor.
    ``window_delta`` atomically returns the amount accumulated since the
    previous ``window_delta`` call and moves the cursor, so it must have
    a single consumer — the monitor loop.  Anything else that wants a
    rate must either own its own counter or diff ``value`` snapshots it
    takes itself; calling ``window_delta`` from two places would make
    each steal the other's delta.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0
        self._last_window = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def window_delta(self) -> int:
        """Value accumulated since the previous call (monitor windows).

        Atomic under the counter's lock: concurrent ``add`` calls land
        either wholly in this window or wholly in the next, never half.
        """
        with self._lock:
            delta = self._value - self._last_window
            self._last_window = self._value
            return delta


class Gauge:
    """A value that can go up and down (queue depths, watermarks)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (peak tracking)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


@dataclass
class LatencySummary:
    """Summary statistics over a set of latency observations."""

    count: int
    mean_s: float
    p50_s: float
    p75_s: float
    p90_s: float
    p99_s: float
    max_s: float


DEFAULT_RESERVOIR = 8192


class Histogram:
    """Bounded-memory observations with exact count/sum/max.

    The histogram keeps ``count``, ``sum`` and ``max`` exactly
    for every observation but retains at most ``reservoir`` raw samples.
    When the reservoir fills, it is decimated deterministically: every
    second retained sample is kept and the acceptance stride doubles, so
    the retained set is always "every k-th observation of the stream"
    for a power-of-two ``k`` — no RNG, identical across runs.
    Percentiles and ``fraction_below`` are computed on the retained
    sample; ``count``/``mean``/``max`` stay exact at any volume.
    """

    def __init__(self, name: str = "", reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 2:
            raise ValueError(f"reservoir must be >= 2, got {reservoir}")
        self.name = name
        self._reservoir = reservoir
        self._lock = threading.Lock()
        self._values: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max: float | None = None
        self._stride = 1

    def observe(self, value: float) -> None:
        with self._lock:
            self._observe(value)

    def observe_many(self, values) -> None:
        with self._lock:
            for value in values:
                self._observe(value)

    def _observe(self, value: float) -> None:
        if self._count % self._stride == 0:
            self._values.append(value)
            if len(self._values) > self._reservoir:
                self._values = self._values[::2]
                self._stride *= 2
        self._count += 1
        self._sum += value
        if self._max is None or value > self._max:
            self._max = value

    def __len__(self) -> int:
        """Exact number of observations (not the retained-sample size)."""
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        """Exact sum of every observation."""
        return self._sum

    @property
    def max_value(self) -> float | None:
        return self._max

    @property
    def values(self) -> list[float]:
        """The retained (down-sampled) observations."""
        return list(self._values)

    def summary(self) -> LatencySummary:
        with self._lock:
            if not self._count:
                raise ValueError(f"histogram {self.name!r} has no observations")
            return LatencySummary(
                count=self._count,
                mean_s=self._sum / self._count,
                p50_s=percentile(self._values, 50),
                p75_s=percentile(self._values, 75),
                p90_s=percentile(self._values, 90),
                p99_s=percentile(self._values, 99),
                max_s=self._max if self._max is not None else 0.0,
            )

    def fraction_below(self, threshold: float) -> float:
        """Fraction of observations strictly below ``threshold``.

        This is the Figure 17 CDF readout ("99% of the queries return
        data within 2 seconds").  Computed over the retained sample —
        exact until the reservoir first decimates, an every-k-th
        estimate after that.
        """
        with self._lock:
            if not self._count:
                raise ValueError(f"histogram {self.name!r} has no observations")
            return sum(1 for v in self._values if v < threshold) / len(self._values)


# A label set, normalized: ``(("shard", 3), ("tenant", 1))``.
LabelKey = tuple[tuple[str, object], ...]


def _sort_key(key: LabelKey) -> tuple:
    """Total order over label sets even when values mix types."""
    return tuple((name, str(value)) for name, value in key)


_QUANTILES = (50, 90, 99)


def label_key(labels: dict[str, object]) -> LabelKey:
    """Normalize a label dict into the registry's child key."""
    return tuple(sorted(labels.items()))


def _format_labels(key: LabelKey, extra: tuple[tuple[str, object], ...] = ()) -> str:
    items = [*key, *extra]
    if not items:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in items)
    return "{" + body + "}"


@dataclass
class _Family:
    """One metric name: a kind, a help string, and labeled children."""

    name: str
    kind: str
    help: str = ""
    children: dict[LabelKey, object] = field(default_factory=dict)


class MetricsRegistry:
    """Get-or-create registry of labeled instruments.

    ``counter``/``gauge``/``histogram`` return the *live* instrument for
    a (name, labels) pair, creating it on first use — callers keep the
    child and record on it directly (no per-record dict lookups on hot
    paths).  Re-registering a name with a different kind is an error.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- instrument access -------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name=name, kind=kind, help=help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, cannot reuse as {kind}"
            )
        if help and not family.help:
            family.help = help
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        with self._lock:
            family = self._family(name, "counter", help)
            key = label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = Counter(name + _format_labels(key))
                family.children[key] = child
            return child  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        with self._lock:
            family = self._family(name, "gauge", help)
            key = label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = Gauge(name + _format_labels(key))
                family.children[key] = child
            return child  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", reservoir: int = DEFAULT_RESERVOIR, **labels
    ) -> Histogram:
        with self._lock:
            family = self._family(name, "histogram", help)
            key = label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = Histogram(name + _format_labels(key), reservoir=reservoir)
                family.children[key] = child
            return child  # type: ignore[return-value]

    # -- read access -------------------------------------------------------

    def children(self, name: str) -> dict[LabelKey, object]:
        """The live children of one family (empty dict if unknown)."""
        with self._lock:
            family = self._families.get(name)
            return dict(family.children) if family is not None else {}

    def counter_value(self, name: str, **labels) -> int:
        family = self._families.get(name)
        if family is None:
            return 0
        child = family.children.get(label_key(labels))
        return child.value if child is not None else 0  # type: ignore[union-attr]

    def snapshot(self) -> "RegistrySnapshot":
        """Freeze every instrument into plain, mergeable data."""
        snap = RegistrySnapshot()
        with self._lock:
            for family in self._families.values():
                if family.kind == "counter":
                    dest = snap.counters.setdefault(family.name, {})
                    for key, child in family.children.items():
                        dest[key] = child.value  # type: ignore[union-attr]
                elif family.kind == "gauge":
                    dest = snap.gauges.setdefault(family.name, {})
                    for key, child in family.children.items():
                        dest[key] = child.value  # type: ignore[union-attr]
                else:
                    hdest = snap.histograms.setdefault(family.name, {})
                    for key, child in family.children.items():
                        hdest[key] = HistogramSnapshot.of(child)  # type: ignore[arg-type]
                snap.help.setdefault(family.name, family.help)
                snap.kinds.setdefault(family.name, family.kind)
        return snap

    def render_prometheus(self) -> str:
        return self.snapshot().render_prometheus()

    def to_json(self) -> dict:
        return self.snapshot().to_json()


@dataclass
class HistogramSnapshot:
    """Frozen histogram: exact count/sum/max plus the retained sample."""

    count: int = 0
    sum: float = 0.0
    max: float | None = None
    sample: tuple[float, ...] = ()

    @classmethod
    def of(cls, histogram: Histogram) -> "HistogramSnapshot":
        return cls(
            count=histogram.count,
            sum=histogram.total,
            max=histogram.max_value,
            sample=tuple(histogram.values),
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Fold ``other`` in (in place).  Exact fields stay exact; the
        combined sample is deterministically decimated back under the
        reservoir bound.

        The combined sample is **sorted before decimation** so the
        survivors depend only on the multiset of values, not on which
        operand contributed them — ``a.merge(b)`` and ``b.merge(a)``
        keep identical samples, and therefore identical quantiles,
        regardless of merge order.  (Sorted every-2nd decimation is
        also a better quantile sketch than arrival-order decimation:
        it thins the distribution uniformly instead of dropping
        whichever shard happened to report first.)"""
        self.count += other.count
        self.sum += other.sum
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        sample = sorted(list(self.sample) + list(other.sample))
        while len(sample) > DEFAULT_RESERVOIR:
            sample = sample[::2]
        self.sample = tuple(sample)
        return self

    def quantile(self, q: float) -> float:
        if not self.sample:
            return 0.0
        return percentile(list(self.sample), q)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(50),
            "p99": self.quantile(99),
        }


@dataclass
class RegistrySnapshot:
    """Plain-data view of a registry at one instant.

    Mergeable: counters and histogram counts/sums **add**, gauges add
    too (per-entity labels make gauge collisions across sources rare,
    and additive merge is what capacity/queue-depth style gauges want).
    This is the broker-side aggregation primitive: snapshot each
    worker's registry, merge, export once.
    """

    counters: dict[str, dict[LabelKey, int]] = field(default_factory=dict)
    gauges: dict[str, dict[LabelKey, float]] = field(default_factory=dict)
    histograms: dict[str, dict[LabelKey, HistogramSnapshot]] = field(
        default_factory=dict
    )
    help: dict[str, str] = field(default_factory=dict)
    kinds: dict[str, str] = field(default_factory=dict)

    # -- merge -------------------------------------------------------------

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """Fold ``other`` into this snapshot (in place); returns self."""
        for name, children in other.counters.items():
            dest = self.counters.setdefault(name, {})
            for key, value in children.items():
                dest[key] = dest.get(key, 0) + value
        for name, children in other.gauges.items():
            gdest = self.gauges.setdefault(name, {})
            for key, value in children.items():
                gdest[key] = gdest.get(key, 0.0) + value
        for name, children in other.histograms.items():
            hdest = self.histograms.setdefault(name, {})
            for key, snap in children.items():
                if key in hdest:
                    hdest[key].merge(snap)
                else:
                    hdest[key] = HistogramSnapshot(
                        snap.count, snap.sum, snap.max, snap.sample
                    )
        for name, text in other.help.items():
            self.help.setdefault(name, text)
        for name, kind in other.kinds.items():
            self.kinds.setdefault(name, kind)
        return self

    # -- queries -----------------------------------------------------------

    def counter_value(self, name: str, **labels) -> int:
        return self.counters.get(name, {}).get(label_key(labels), 0)

    def counter_total(self, name: str) -> int:
        return sum(self.counters.get(name, {}).values())

    def by_label(self, name: str, label: str) -> dict[object, float]:
        """Sum a counter family grouped by one label's values.

        ``by_label("…_rows_ingested_total", "tenant")`` is the Figure 13/14
        per-tenant series.
        """
        out: dict[object, float] = {}
        for key, value in self.counters.get(name, {}).items():
            for k, v in key:
                if k == label:
                    out[v] = out.get(v, 0.0) + value
        return out

    def gauge_value(self, name: str, **labels) -> float:
        return self.gauges.get(name, {}).get(label_key(labels), 0.0)

    def histogram_snapshot(self, name: str, **labels) -> HistogramSnapshot | None:
        return self.histograms.get(name, {}).get(label_key(labels))

    # -- export ------------------------------------------------------------

    def _names(self) -> list[str]:
        return sorted([*self.counters, *self.gauges, *self.histograms])

    def render_prometheus(self) -> str:
        """Prometheus-style text exposition (deterministic ordering)."""
        lines: list[str] = []
        for name in self._names():
            kind = self.kinds.get(name, "counter")
            help_text = self.help.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            if kind == "histogram":
                lines.append(f"# TYPE {name} summary")
                for key in sorted(self.histograms[name], key=_sort_key):
                    snap = self.histograms[name][key]
                    for q in _QUANTILES:
                        quantile_label = (("quantile", f"0.{q:02d}".rstrip("0")),)
                        lines.append(
                            f"{name}{_format_labels(key, quantile_label)} "
                            f"{snap.quantile(q):.9g}"
                        )
                    lines.append(f"{name}_count{_format_labels(key)} {snap.count}")
                    lines.append(f"{name}_sum{_format_labels(key)} {snap.sum:.9g}")
            else:
                lines.append(f"# TYPE {name} {kind}")
                children = self.counters.get(name) or self.gauges.get(name) or {}
                for key in sorted(children, key=_sort_key):
                    value = children[key]
                    rendered = f"{value:.9g}" if isinstance(value, float) else str(value)
                    lines.append(f"{name}{_format_labels(key)} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict:
        """JSON-safe dict (labels flattened to ``k=v,…`` strings)."""

        def flat(key: LabelKey) -> str:
            return ",".join(f"{k}={v}" for k, v in key)

        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, children in sorted(self.counters.items()):
            out["counters"][name] = {
                flat(k): children[k] for k in sorted(children, key=_sort_key)
            }
        for name, gchildren in sorted(self.gauges.items()):
            out["gauges"][name] = {
                flat(k): gchildren[k] for k in sorted(gchildren, key=_sort_key)
            }
        for name, hchildren in sorted(self.histograms.items()):
            out["histograms"][name] = {
                flat(k): hchildren[k].as_dict()
                for k in sorted(hchildren, key=_sort_key)
            }
        return out

    def to_json_text(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)
