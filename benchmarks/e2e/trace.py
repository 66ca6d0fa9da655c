"""Outside-in span recorder: the benchmark's per-layer view of the system.

Nothing under ``src/`` knows about this file.  ``Tracer.start()`` wraps
the public entry points listed in ``SPAN_TARGETS`` — class attributes
with ``setattr``, module functions at the *importing* module's binding
(``repro.cluster.broker.parse_sql``, not ``repro.query.sql.parse_sql``),
codecs by wrapping the ``get_codec`` lookups of the LogBlock writer and
reader so they hand out timed ``Codec`` copies — and ``stop()`` restores
every original.  Each call appends one ``(name, start, end, parent,
op_id)`` tuple to an in-memory list; ``parent`` is the index of the
enclosing span and every span under one root call shares its ``op_id``.

A layer's self time is its spans' durations minus the durations of
their direct children (``aggregate``).  The system is single-threaded,
so children never overlap and self times sum to the root spans' total.

Targets are resolved by dotted path when tracing starts.  One that no
longer exists is listed in ``Tracer.missing`` instead of raising, so a
later PR may delete a wrapped method without breaking the benchmark.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import time
from collections import defaultdict

# span (layer.name) -> public calls it wraps.
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "frontdoor.execute": ("repro.frontdoor.session.Session.execute",),
    "frontdoor.parse": (
        "repro.frontdoor.session.parse_statement",
        "repro.frontdoor.session.bind_parameters",
    ),
    "frontdoor.rewrite": ("repro.frontdoor.rewrite.SemanticRewriter.rewrite",),
    "cluster.put": (
        "repro.cluster.logstore.LogStore.put",
        "repro.cluster.logstore.LogStore.put_nowait",
    ),
    "cluster.settle": ("repro.cluster.logstore.LogStore.settle_writes",),
    "cluster.broker_write": (
        "repro.cluster.broker.Broker.write",
        "repro.cluster.broker.Broker.write_nowait",
    ),
    "cluster.shard_write": (
        "repro.cluster.shard.Shard.write",
        "repro.cluster.shard.Shard.write_async",
    ),
    "flow.route": (
        "repro.flow.router.RoutingTable.route_write",
        "repro.flow.router.RoutingTable.split_batch",
        "repro.flow.router.RoutingTable.route_read",
    ),
    "raft.group_commit": (
        "repro.raft.group_commit.GroupCommitQueue.offer",
        "repro.raft.group_commit.GroupCommitQueue.flush",
    ),
    "raft.pipeline": (
        "repro.raft.group_commit.ReplicationPipeline.submit",
        "repro.raft.group_commit.ReplicationPipeline.settle",
    ),
    "raft.propose": (
        "repro.raft.node.RaftNode.propose",
        "repro.raft.node.RaftNode.propose_many",
    ),
    "raft.send": ("repro.raft.network.SimNetwork.send",),
    "wal.append": (
        "repro.wal.log.WriteAheadLog.append",
        "repro.wal.log.WriteAheadLog.append_many",
    ),
    "wal.truncate": ("repro.wal.log.WriteAheadLog.truncate_before",),
    "rowstore.append": (
        "repro.rowstore.store.RowStore.append",
        "repro.rowstore.store.RowStore.append_many",
    ),
    "rowstore.seal": (
        "repro.rowstore.store.RowStore.seal_active",
        "repro.rowstore.store.RowStore.take_sealed",
        "repro.rowstore.memtable.MemTable.rows_by_tenant",
    ),
    "rowstore.scan": ("repro.rowstore.store.RowStore.scan",),
    "cluster.archive": (
        "repro.cluster.controller.Controller.archive_all",
        "repro.cluster.controller.Controller.flush_all",
    ),
    "cluster.checkpoint": ("repro.cluster.shard.Shard.checkpoint",),
    "builder.archive_memtable": ("repro.builder.builder.DataBuilder.archive_memtable",),
    "logblock.append": (
        "repro.logblock.writer.LogBlockWriter.append_many",
        "repro.logblock.writer.LogBlockWriter.append_columns",
    ),
    "logblock.finish": ("repro.logblock.writer.LogBlockWriter.finish",),
    "logblock.index_build": (
        "repro.logblock.inverted.InvertedIndexBuilder.add_many",
        "repro.logblock.inverted.InvertedIndexBuilder.build",
        "repro.logblock.inverted.InvertedIndex.to_bytes",
        "repro.logblock.bkd.BkdIndexBuilder.add_many",
        "repro.logblock.bkd.BkdIndexBuilder.build",
        "repro.logblock.bkd.BkdIndex.to_bytes",
        "repro.logblock.bloom.BloomFilter.add_many",
        "repro.logblock.bloom.BloomFilter.to_bytes",
    ),
    "tarpack.build": ("repro.tarpack.packer.PackBuilder.build",),
    "tarpack.read": (
        "repro.tarpack.reader.PackReader.read_member",
        "repro.tarpack.reader.PackReader.manifest",
    ),
    "oss.put": ("repro.oss.metered.MeteredObjectStore.put",),
    "oss.get": (
        "repro.oss.metered.MeteredObjectStore.get",
        "repro.oss.metered.MeteredObjectStore.get_range",
        "repro.oss.metered.MeteredObjectStore.get_ranges_parallel",
    ),
    "cache.get": (
        "repro.cache.multilevel.CachingRangeReader.get_range",
        "repro.cache.multilevel.CachingRangeReader.get_ranges_parallel",
    ),
    "prefetch.plan": ("repro.prefetch.planner.PrefetchPlanner.plan",),
    "prefetch.execute": ("repro.prefetch.executor.ParallelPrefetcher.execute",),
    "query.parse": ("repro.cluster.broker.parse_sql",),
    "query.plan": ("repro.query.planner.QueryPlanner.plan",),
    "meta.catalog": (
        "repro.meta.catalog.Catalog.blocks_for",
        "repro.meta.catalog.Catalog.add_block",
    ),
    "cluster.broker_query": ("repro.cluster.broker.Broker.query",),
    "query.execute": (
        "repro.query.executor.BlockExecutor.execute",
        "repro.query.executor.BlockExecutor.execute_aggregate",
        "repro.query.executor.BlockExecutor.execute_dedup",
    ),
    "query.aggregate": (
        "repro.query.aggregate.Aggregator.consume_many",
        "repro.query.aggregate.Aggregator.consume_columns",
        "repro.query.aggregate.Aggregator.consume_sma",
        "repro.query.aggregate.Aggregator.merge",
        "repro.query.aggregate.Aggregator.results",
    ),
    "logblock.read_index": (
        "repro.logblock.reader.LogBlockReader.read_index",
        "repro.logblock.reader.LogBlockReader.read_bloom",
    ),
    "logblock.evaluate": ("repro.query.executor.evaluate_predicates",),
    "logblock.read_values": (
        "repro.logblock.reader.LogBlockReader.read_column_values",
        "repro.logblock.reader.LogBlockReader.read_rows",
        "repro.logblock.reader.LogBlockReader.read_column",
    ),
    "cluster.realtime_scan": ("repro.cluster.shard.Shard.scan_realtime",),
    "query.realtime_filter": ("repro.cluster.broker.filter_realtime_rows",),
    "cluster.background": ("repro.cluster.logstore.LogStore.run_background_tasks",),
    "lifecycle.tick": ("repro.lifecycle.manager.LifecycleManager.tick",),
    "obs.record": (
        "repro.obs.meter.UsageMeter.record_ingest",
        "repro.obs.meter.UsageMeter.record_query",
        "repro.obs.slo.SloTracker.record_query",
        "repro.obs.slo.SloTracker.record_write",
        "repro.obs.events.EventJournal.emit",
        "repro.obs.alerts.AlertEngine.evaluate",
    ),
}
# Spans that come from the codec lookups below rather than from a path.
CODEC_SPANS = ("codec.compress", "codec.decompress")
CODEC_LOOKUPS = ("repro.logblock.writer.get_codec", "repro.logblock.reader.get_codec")
SPAN_NAMES = tuple(SPAN_TARGETS) + CODEC_SPANS

# Calls counted (not timed) at the same boundaries: path -> (calls
# counter, counter for the bytes of the call's last argument or None).
COUNT_TARGETS = {
    "repro.raft.group_commit.GroupCommitQueue.offer": ("raft.batches", None),
    "repro.raft.group_commit.ReplicationPipeline.submit": ("raft.entries", None),
    # append(segment_id, data): what reaches the device stand-in.
    "repro.wal.log.MemorySegmentBackend.append": ("wal.backend_appends", "wal.backend_bytes"),
}


def resolve(path: str):
    """``(owner, attribute name, raw attribute)`` of a dotted path.

    The owner is a module or a class; the raw attribute is what its
    ``__dict__`` holds (a function, or a static/classmethod object).
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], inspect.getattr_static(owner, parts[-1])
    raise ImportError(path)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op_id = 0
        self._restore: list[tuple] = []
        self._codecs: dict[str, object] = {}

    # -- install / restore ---------------------------------------------------

    def start(self) -> None:
        """Wrap every target that resolves and begin a fresh recording."""
        self.spans.clear()
        self.counts.clear()
        self.missing.clear()
        self._op_id = 0
        for path, counters in COUNT_TARGETS.items():
            self._patch(path, lambda fn, counters=counters: self._counted(*counters, fn))
        for name, paths in SPAN_TARGETS.items():
            for path in paths:
                self._patch(path, lambda fn, name=name: self._timed(name, fn))
        for path in CODEC_LOOKUPS:
            self._patch(path, self._timed_codec_lookup)

    def stop(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, path: str, wrap) -> None:
        try:
            owner, attr, original = resolve(path)
        except (ImportError, AttributeError):
            original = None
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(wrap(original.__func__))
        elif callable(original):
            wrapped = wrap(original)
        else:  # gone, or became a property or a constant: nothing to call
            if path not in self.missing:
                self.missing.append(path)
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(name, fn)
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._op_id += 1
            spans.append(None)
            stack.append(index)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op_id)

        return traced

    def _timed_generator(self, name: str, fn):
        """One span per generator: the time spent inside it across all
        of its resumptions, charged to whoever first pulls from it."""
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            first = now()
            busy = 0.0
            try:
                while True:
                    stack.append(index)
                    start = now()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += now() - start
                        stack.pop()
                    yield item
            finally:
                spans[index] = (name, first, first + busy, parent, self._op_id)

        return traced

    def _counted(self, calls: str, nbytes: str | None, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[calls] += 1
            if nbytes is not None:
                counts[nbytes] += len(args[-1])
            return fn(*args, **kwargs)

        return counted

    def _timed_codec_lookup(self, get_codec):
        def lookup(key):
            codec = get_codec(key)
            timed = self._codecs.get(codec.name)
            if timed is None:
                compress = self._timed("codec.compress", codec.compress)
                counts = self.counts

                def measured_compress(data):
                    out = compress(data)
                    counts["codec.in_bytes"] += len(data)
                    counts["codec.out_bytes"] += len(out)
                    return out

                timed = dataclasses.replace(
                    codec,
                    compress=measured_compress,
                    decompress=self._timed("codec.decompress", codec.decompress),
                )
                self._codecs[codec.name] = timed
            return timed

        return lookup

    # -- results -------------------------------------------------------------

    def aggregate(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(self_s, calls)`` per span name over the recording."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        spans = self.spans
        for name, start, end, parent, _op_id in spans:
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= duration
        return self_s, calls

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
