"""Query execution over archived LogBlocks (§5, Figure 8 steps 2–5).

For each LogBlock surviving the LogBlock-map filter:

1. load ``meta`` (through the object + block caches);
2. optionally prefetch the index members of indexed predicate columns
   in one parallel batch (§5.2);
3. evaluate the predicate tree to a row mask using SMA pruning,
   index lookups, and block scans (:mod:`repro.logblock.pruning`) —
   the tree compiled once per query by the one
   :func:`~repro.query.kernels.compile_expr`, with the block leaf;
4. optionally prefetch exactly the column blocks containing matched
   rows for the columns the sink reads;
5. hand the matched rows to the sink: a column chunk (``execute``), an
   aggregate fold over the decoded blocks (``execute_aggregate``) or
   the latest-version tournament (``execute_dedup``).

That loop exists once (``_overlapped`` → ``_scan`` → sink), with blocks
overlapped ``prefetch_threads`` wide.  The same module also filters
real-time (row store) rows with the same leaf kernel over their column
vectors — the row store deliberately has no indexes — and keeps the
matches a selection of the memtable's columns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.utils import wave_elapsed
from repro.logblock.pruning import (
    ColumnPredicate,
    EqPredicate,
    InPredicate,
    PruneStats,
    bloom_may_match,
    evaluate_predicates,
    index_answers,
    proves_all_match,
)
from repro.logblock.reader import LogBlockReader
from repro.logblock.reader import RowSelection as BlockSelection
from repro.logblock.schema import ColumnType
from repro.logblock.writer import (
    META_MEMBER,
    LogBlockMeta,
    block_member,
    bloom_member,
    index_member,
)
from repro.logblock.sma import Sma
from repro.meta.catalog import TIER_COLD, LogBlockEntry
from repro.prefetch.executor import ParallelPrefetcher
from repro.prefetch.planner import PrefetchPlanner
from repro.query.aggregate import Aggregator
from repro.query.ast import Expr, IsNull
from repro.query.dedup import LatestVersionDedup
from repro.query.kernels import compile_expr, selection_columns
from repro.query.planner import QueryPlan
from repro.rowstore.batch import RowBatch, RowSelection
from repro.tarpack.reader import PackReader, SubrangeReader


@dataclass
class ExecutionOptions:
    """Knobs for the §6.3 experiments."""

    use_skipping: bool = True       # Figure 15: data skipping on/off
    use_indexes: bool = True        # ablation: SMA-only skipping
    use_prefetch: bool = True       # Figure 16: parallel prefetch on/off
    prefetch_threads: int = 32      # §6.3.2 "using 32 threads"
    prefetch_merge_gap: int = 4096


# CPU cost model, charged to the same virtual clock as the I/O.  These
# bound the OSS-vs-local and first-vs-repeat latency ratios exactly the
# way real decode/evaluation CPU does in the paper.
CPU_DECODE_BYTES_PER_S = 50e6   # decompress + decode rate
CPU_SCAN_ROWS_PER_S = 2e6       # predicate evaluation by scan
CPU_INDEX_LOOKUP_S = 0.0005     # one index probe + row-set merge
CPU_PER_BLOCK_S = 0.001         # per-LogBlock plan/merge overhead
# Reading a value out for the result vs folding it in an aggregate.
CPU_MATERIALIZE_VALUES_PER_S = 5e6
CPU_AGG_VALUES_PER_S = 20e6


@dataclass
class PushdownCounters:
    """Per-query aggregate-pushdown work accounting.

    Recorded by the block executor and surfaced through
    ``ExecutionStats`` so benchmarks and EXPLAIN ANALYZE can report how
    each block of an aggregate query was answered:

    * ``agg_catalog_hits`` — tier 1: answered from the LogBlock-map
      entry alone (zero requests, zero bytes);
    * ``agg_sma_blocks`` — tier 2: folded from the block's SMAs in the
      already-loaded meta (no column blocks read);
    * ``agg_columnar_blocks`` — tier 3: aggregated from late-
      materialized column vectors (only the aggregated columns read).
    """

    agg_catalog_hits: int = 0
    agg_sma_blocks: int = 0
    agg_columnar_blocks: int = 0

    def merge(self, other: "PushdownCounters") -> None:
        for name, count in other.as_dict().items():
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class ExecutionStats:
    """Work accounting for one query."""

    blocks_visited: int = 0
    cold_blocks_visited: int = 0
    rows_matched: int = 0
    # Stored rows (archived or realtime) that became python dicts.
    rows_materialized: int = 0
    prune: PruneStats = field(default_factory=PruneStats)
    prefetch_requests: int = 0
    prefetch_bytes: int = 0
    # Members the prefetch stages wanted: fetched, or skipped because
    # their decoded form / their bytes were resident.
    prefetch_members_fetched: int = 0
    prefetch_resident_decoded: int = 0
    prefetch_resident_bytes: int = 0
    pushdown: PushdownCounters = field(default_factory=PushdownCounters)
    # Latest-version dedup accounting: versions offered to the
    # tournament vs winners actually materialized.
    dedup_candidates: int = 0
    dedup_winners: int = 0
    # Realtime rows a predicate was evaluated on (the archived
    # counterpart is ``prune.rows_vectorized``).
    realtime_rows_vectorized: int = 0

    @property
    def rows_evaluated_vectorized(self) -> int:
        """Rows a predicate was evaluated on, archived + realtime."""
        return self.prune.rows_vectorized + self.realtime_rows_vectorized

    @property
    def rows_evaluated_interpreted(self) -> int:
        """Always 0: every predicate is evaluated on column vectors."""
        return 0


class _BlockWhere:
    """``plan.where`` compiled once per query for archived LogBlocks.

    ``match(reader)`` is the tree's row mask over one block: the one
    :func:`compile_expr` with :meth:`_leaf`, whose predicate is built
    here once.  The prefetch reads the same predicates per column:
    ``probes`` holds the string Eq / IN ones a Bloom filter answers,
    ``indexed`` the ones the column's index answers
    (:func:`~repro.logblock.pruning.index_answers`), and ``unprobed``
    names the columns with an indexed leaf that is not a probe.
    """

    def __init__(
        self, where: Expr, schema, options: ExecutionOptions, prune: PruneStats
    ) -> None:
        self.probes: dict[str, list[ColumnPredicate]] = {}
        self.indexed: dict[str, list[ColumnPredicate]] = {}
        self.unprobed: set[str] = set()
        self._schema = schema
        self._options = options
        self._prune = prune
        self.match = compile_expr(where, self._leaf)

    def _leaf(self, node: Expr):
        predicate = node.to_column_predicate()
        column = predicate.column
        probe = (isinstance(predicate, EqPredicate) and isinstance(predicate.value, str)) or (
            isinstance(predicate, InPredicate) and all(isinstance(v, str) for v in predicate.values)
        )
        if probe:
            self.probes.setdefault(column, []).append(predicate)
        if index_answers(self._schema.column(column), predicate):
            self.indexed.setdefault(column, []).append(predicate)
            if not probe:
                self.unprobed.add(column)
        # A column added by DDL after a block was written reads as null
        # there: False for every row — except IS NULL, whose whole job
        # is to match those nulls.
        absent = isinstance(node, IsNull)
        options, prune = self._options, self._prune

        def evaluate(reader: LogBlockReader) -> np.ndarray:
            if column not in reader.meta().schema.column_names():
                return np.full(reader.row_count, absent)
            return evaluate_predicates(
                reader, [predicate], options.use_skipping, options.use_indexes, prune
            )

        return evaluate


def _decided_by_sma(predicates: list, column_sma: Sma, ctype: ColumnType) -> bool:
    """Whether the column SMA alone answers every predicate of a column.

    True when each is proven to match no row or every row — the two
    outcomes :func:`evaluate_predicates` returns from before it opens
    the index — so the index member need not be fetched.
    """
    try:
        for predicate in predicates:
            if predicate.may_match_sma(column_sma, ctype) and not proves_all_match(
                predicate, column_sma, ctype
            ):
                return False
    except TypeError:
        # A literal the bounds cannot be compared with; evaluation, if
        # it gets that far, raises with the leaf's context.
        return False
    return True


class BlockExecutor:
    """Executes plans against LogBlocks in one OSS bucket."""

    def __init__(
        self,
        range_reader: CachingRangeReader,
        bucket: str,
        options: ExecutionOptions | None = None,
    ) -> None:
        self._reader = range_reader
        self._bucket = bucket
        self.options = options if options is not None else ExecutionOptions()
        self._planner = PrefetchPlanner(merge_gap=self.options.prefetch_merge_gap)
        self._charge = range_reader.store.clock.sleep

    @property
    def cache(self) -> MultiLevelCache:
        return self._reader.cache

    # -- per-block machinery --------------------------------------------

    def _open_block_from_pack(self, pack: PackReader) -> LogBlockReader:
        reader = LogBlockReader(
            pack,
            decode_charge=lambda nbytes: self._charge(nbytes / CPU_DECODE_BYTES_PER_S),
        )
        # Decoded-meta object cache: parsing the meta member is the most
        # repeated deserialization across queries of the same tenant.
        meta_key = (self._bucket, pack.key, META_MEMBER)
        meta = self.cache.objects.get(meta_key)
        if meta is None:
            meta = LogBlockMeta.from_bytes(pack.read_member(META_MEMBER))
            self.cache.objects.put(meta_key, meta, approx_bytes=meta.nbytes)
        reader.attach_meta(meta)
        # Bloom filters and index members decoded by any reader of this
        # blob are shared the same way (keys: (bucket, key, member)).
        reader.attach_shared_cache(self.cache.objects, self._bucket)
        return reader

    def _open_pack(self, entry: LogBlockEntry) -> PackReader:
        """A PackReader with its parsed header served from the object cache.

        The preamble + manifest of a packed LogBlock are immutable once
        written, so re-fetching and re-parsing them for every query of
        the same blob is pure waste; the decoded manifest is cached
        alongside the decoded meta/bloom objects.  The head chunk it
        came in stays with the block tiers, which already hold it.

        A cold-tier entry's bytes live inside a tar-packed segment
        object; a :class:`SubrangeReader` window over the segment makes
        the member readable by the unmodified pack/LogBlock stack, with
        every ranged GET (and cached byte range) landing on the segment
        object so members of one segment share cache entries.
        """
        path = entry.path
        if entry.segment_path is not None:
            window = SubrangeReader(
                self._reader,
                self._bucket,
                entry.segment_path,
                entry.segment_offset,
                entry.segment_length,
            )
            pack = PackReader(window, self._bucket, path)
        else:
            pack = PackReader(self._reader, self._bucket, path, entry.size_bytes)
        header_key = (self._bucket, path, "__pack_header__")
        cached = self.cache.objects.get(header_key)
        if cached is not None:
            pack.attach_manifest(*cached)
        else:
            manifest = pack.manifest()
            self.cache.objects.put(
                header_key, (manifest, pack.data_start), approx_bytes=manifest.nbytes
            )
        return pack

    def _open_block(self, entry: LogBlockEntry) -> LogBlockReader:
        return self._open_block_from_pack(self._open_pack(entry))

    def _prefetch_members(self, pack: PackReader, members: list[str], stats) -> None:
        """Fetch the missing ones of ``members`` as one merged parallel batch.

        The one request rule: a member is requested iff neither its
        decoded form (object tier) nor its bytes (head chunk or either
        block tier) are resident.  Dropping members before the planner
        merges keeps resident bytes out of the merged ranges too.
        """
        missing: list[str] = []
        for member in members:
            if self.cache.objects.contains((self._bucket, pack.key, member)):
                stats.prefetch_resident_decoded += 1
            elif pack.resident(member):
                stats.prefetch_resident_bytes += 1
            else:
                missing.append(member)
        if not missing:
            return
        plan = self._planner.plan(
            self._bucket, pack.key, pack.manifest(), pack.data_start, missing
        )
        prefetcher = ParallelPrefetcher(pack.store, self.options.prefetch_threads)
        prefetcher.execute(plan)
        stats.prefetch_members_fetched += len(missing)
        stats.prefetch_requests += prefetcher.stats.requests_issued
        stats.prefetch_bytes += prefetcher.stats.bytes_loaded

    def _prefetch_meta_and_indexes(
        self, pack: PackReader, where: _BlockWhere | None, stats: ExecutionStats
    ) -> LogBlockReader:
        """Two-stage parallel load of everything evaluation will touch.

        Stage 1 (one overlapped batch): the meta member plus the Bloom
        filters of equality-probed string columns.  Stage 2: the index
        members — but only for columns whose column SMA leaves some
        leaf undecided (a single-tenant block answers ``tenant_id = 7``
        from its meta, a block inside the window answers the ``ts``
        range) and that the Bloom filters could not rule out, so a
        needle query probing an absent value never pays for the (much
        larger) inverted index.  This is §5.2's loading workflow
        (Figures 9/10) with SMA and Bloom short-circuiting.
        """
        manifest = pack.manifest()
        probes = where.probes if where is not None else {}
        blooms = [bloom_member(column) for column in sorted(probes)]
        stage1 = [META_MEMBER] + [member for member in blooms if member in manifest]
        self._prefetch_members(pack, stage1, stats)

        reader = self._open_block_from_pack(pack)
        if where is None or not self.options.use_indexes:
            return reader

        stage2: list[str] = []
        for column in sorted(where.indexed):
            member = index_member(column)
            if member not in manifest:
                continue
            if self.options.use_skipping and _decided_by_sma(
                where.indexed[column], reader.column_sma(column), reader.column(column).ctype
            ):
                continue  # evaluation will never open this index
            if self.cache.objects.contains((self._bucket, pack.key, member)):
                stage2.append(member)  # decoded and shared: no Bloom to read for it
                continue
            column_probes = probes.get(column)
            if (
                column_probes
                and not any(bloom_may_match(reader, probe) for probe in column_probes)
                and column not in where.unprobed
            ):
                # Every probe of this column is provably absent and
                # no other leaf of it reads the index: skip fetching it.
                continue
            stage2.append(member)
        self._prefetch_members(pack, stage2, stats)
        return reader

    def _prefetch_output_blocks(
        self,
        reader: LogBlockReader,
        selection: BlockSelection,
        columns: list[str],
        stats: ExecutionStats,
    ) -> None:
        """Batch-load exactly the column blocks holding matched rows.

        A block this reader already decoded is resident whatever the
        object tier says (the memo holds what that tier was too small to
        admit); the rest go by the one request rule.
        """
        schema = reader.meta().schema
        blocks = [
            (schema.column_index(column), block_idx)
            for column in columns
            for block_idx, _ in selection.groups
        ]
        members = [block_member(*b) for b in blocks if not reader.has_decoded_block(*b)]
        stats.prefetch_resident_decoded += len(blocks) - len(members)
        self._prefetch_members(reader.pack, members, stats)

    def _match_block(
        self, entry: LogBlockEntry, where: _BlockWhere | None, stats: ExecutionStats
    ) -> tuple[LogBlockReader, BlockSelection]:
        """Open one LogBlock and evaluate the predicate to its matched rows.

        The row mask becomes row ids, and those (block, offsets) groups,
        exactly once here; the count, the block prefetch and every
        column read downstream share that one :class:`BlockSelection`.
        """
        if self.options.use_prefetch:
            pack = self._open_pack(entry)
            reader = self._prefetch_meta_and_indexes(pack, where, stats)
        else:
            reader = self._open_block(entry)
        stats.blocks_visited += 1
        if entry.tier == TIER_COLD:
            stats.cold_blocks_visited += 1
        self._charge(CPU_PER_BLOCK_S)
        scanned_before = stats.prune.blocks_scanned
        lookups_before = stats.prune.index_lookups
        if where is not None:
            matched = reader.select(np.flatnonzero(where.match(reader)))
        else:
            matched = reader.select(np.arange(reader.row_count, dtype=np.int64))
        # CPU cost of evaluation: scanned blocks pay per-row evaluation,
        # index probes pay a constant (the decode itself was charged at
        # the reader through decode_charge).
        scanned = stats.prune.blocks_scanned - scanned_before
        lookups = stats.prune.index_lookups - lookups_before
        if scanned:
            rows_scanned = scanned * reader.meta().block_rows
            self._charge(rows_scanned / CPU_SCAN_ROWS_PER_S)
        if lookups:
            self._charge(lookups * CPU_INDEX_LOOKUP_S)
        return reader, matched

    def _present_columns(self, reader, matched, columns, values_per_s, stats) -> list[str]:
        """The ones of ``columns`` this block has, ready to be read.

        Columns added by DDL after the block was written are left out
        (they read as null).  Prefetches exactly the column blocks that
        hold matched rows and charges the per-value CPU cost at
        ``values_per_s``.
        """
        block_columns = set(reader.meta().schema.column_names())
        present = [c for c in columns if c in block_columns]
        if self.options.use_prefetch and present:
            self._prefetch_output_blocks(reader, matched, present, stats)
        self._charge(len(matched) * max(1, len(present)) / values_per_s)
        return present

    def _read_chunk(
        self, reader, matched, columns, stats, values_per_s=CPU_MATERIALIZE_VALUES_PER_S
    ) -> RowBatch:
        """The matched rows as a column chunk of exactly ``columns``: one
        flat python vector per column, one shared null vector for the
        DDL-added ones this block lacks."""
        present = self._present_columns(reader, matched, columns, values_per_s, stats)
        nulls = [None] * len(matched)
        return RowBatch(
            tuple(columns),
            [reader.read_column_values(c, matched) if c in present else nulls for c in columns],
        )

    # -- the block loop ----------------------------------------------------

    def _overlapped(self, items, work, done=None) -> None:
        """Run ``work(item)`` per item under the §5.2 overlap model.

        With prefetch enabled the items are processed by the parallel
        loading pool (Figure 10): each item's charges are collected
        separately and the items overlap ``prefetch_threads`` wide, so
        the query pays the slowest of each wave rather than the sum.
        Without prefetch (or on a wall clock) items serialize.  ``done``
        is asked after every item and stops the loop (LIMIT pushdown).
        """
        clock = self._reader.store.clock
        overlap = (
            self.options.use_prefetch and len(items) > 1 and hasattr(clock, "deferred")
        )
        durations: list[float] = []
        for item in items:
            if overlap:
                with clock.deferred() as charges:
                    work(item)
                durations.append(charges.total)
            else:
                work(item)
            if done is not None and done():
                break
        if overlap:
            clock.sleep(wave_elapsed(durations, max(1, self.options.prefetch_threads)))

    def _scan(self, plan: QueryPlan, entries, stats: ExecutionStats, sink, done=None) -> None:
        """Hand ``sink(reader, matched)`` every block's non-empty selection."""
        where = (
            None
            if plan.where is None
            else _BlockWhere(plan.where, plan.schema, self.options, stats.prune)
        )

        def visit(entry: LogBlockEntry) -> None:
            reader, matched = self._match_block(entry, where, stats)
            if len(matched):
                stats.rows_matched += len(matched)
                sink(reader, matched)

        self._overlapped(entries, visit, done)

    # -- entry points: one sink each ---------------------------------------

    def execute(self, plan: QueryPlan) -> tuple[RowBatch, ExecutionStats]:
        """Run the plan over all its LogBlocks; returns (column chunk, stats)."""
        stats = ExecutionStats()
        chunks: list[RowBatch] = []
        columns = plan.output_columns or plan.schema.column_names()
        limit = plan.row_limit

        def sink(reader: LogBlockReader, matched: BlockSelection) -> None:
            chunks.append(self._read_chunk(reader, matched, columns, stats))

        # LIMIT pushdown: enough rows, skip later blocks.
        done = None if limit is None else lambda: stats.rows_matched >= limit
        self._scan(plan, plan.blocks, stats, sink, done)
        return RowBatch.concat(chunks), stats

    def _sma_foldable(self, plan: QueryPlan, reader: LogBlockReader) -> bool:
        """Whether every aggregate folds from this block's meta alone.

        SUM/AVG require the per-column sum recorded since meta format v3;
        legacy (v2) blocks report ``sum_value=None`` for columns that
        actually hold values, which sends the block down to tier 3.
        """
        meta = reader.meta()
        block_columns = set(meta.schema.column_names())
        for item in plan.query.select:
            if item.column is None or item.column not in block_columns:
                continue  # COUNT(*) / DDL-added column (reads as null)
            if item.aggregate in ("sum", "avg"):
                sma = reader.column_sma(item.column)
                if sma.sum_value is None and sma.row_count > sma.null_count:
                    return False
        return True

    def execute_aggregate(self, plan: QueryPlan) -> tuple[Aggregator, ExecutionStats]:
        """Run an aggregate plan; returns a mergeable partial aggregator.

        Tier 1 (catalog-only): when the plan is COUNT(*)/MIN(ts)/MAX(ts)
        over a tenant/ts-only predicate, every LogBlock whose catalog
        time range is fully covered is folded from its
        :class:`LogBlockEntry` — the pack is never opened, so such
        entries cost zero requests, zero bytes, and zero virtual time.
        Remaining blocks go through the block loop and are folded by
        the cheapest of tiers 2/3 the block is eligible for.
        """
        stats = ExecutionStats()
        aggregator = Aggregator(plan.query)
        pushdown = plan.agg_pushdown
        assert pushdown is not None
        remaining: list[LogBlockEntry] = []
        for entry in plan.blocks:
            if pushdown.catalog_eligible and entry.covered_by(
                pushdown.ts_low,
                pushdown.ts_high,
                pushdown.ts_low_inclusive,
                pushdown.ts_high_inclusive,
            ):
                aggregator.consume_sma(
                    {
                        pushdown.ts_column: Sma(
                            entry.min_ts, entry.max_ts, entry.row_count, 0
                        )
                    },
                    entry.row_count,
                )
                stats.rows_matched += entry.row_count
                stats.pushdown.agg_catalog_hits += 1
            else:
                remaining.append(entry)

        def sink(reader: LogBlockReader, matched: BlockSelection) -> None:
            meta = reader.meta()
            if (
                pushdown.sma_eligible
                and len(matched) == meta.row_count
                and self._sma_foldable(plan, reader)
            ):
                # Tier 2: every row matches — fold from the (already
                # loaded) meta's column SMAs; zero column blocks are read.
                block_columns = set(meta.schema.column_names())
                smas = {
                    column: reader.column_sma(column)
                    for column in pushdown.input_columns
                    if column in block_columns
                }
                aggregator.consume_sma(smas, meta.row_count)
                stats.pushdown.agg_sma_blocks += 1
            else:
                # Tier 3: late materialization — fold the aggregated
                # columns' decoded blocks; no python value per row.
                present = self._present_columns(
                    reader, matched, pushdown.input_columns, CPU_AGG_VALUES_PER_S, stats
                )
                aggregator.consume_columns(
                    {
                        c: [reader.read_block_arrays(c, block) for block, _ in matched.groups]
                        for c in present
                    },
                    [in_block for _, in_block in matched.groups],
                )
                stats.pushdown.agg_columnar_blocks += 1

        self._scan(plan, remaining, stats, sink)
        return aggregator, stats

    def execute_dedup(self, plan: QueryPlan) -> tuple[LatestVersionDedup, ExecutionStats]:
        """Run the tournament over all archived LogBlocks of the plan.

        Blocks are visited in plan order (catalog sort order), so offer
        sequence equals stream order — the tie-break the naive window
        materialization also uses.  Only the two tournament columns are
        read, as late-materialized vectors; payloads are ``(reader,
        row_id)`` handles and the wide output columns are fetched later,
        for winners only.  The caller then offers real-time rows (as
        ``(chunk, position)`` handles) and finishes with
        :meth:`materialize_dedup`.
        """
        stats = ExecutionStats()
        dedup = LatestVersionDedup()
        spec = plan.dedup
        assert spec is not None

        def sink(reader: LogBlockReader, matched: BlockSelection) -> None:
            count = len(matched)
            keys, versions = self._read_chunk(
                reader, matched, (spec.key_column, spec.version_column), stats, CPU_AGG_VALUES_PER_S
            ).columns
            dedup.offer_many(keys, versions, reader, matched.row_ids.tolist())
            stats.dedup_candidates += count

        self._scan(plan, plan.blocks, stats, sink)
        return dedup, stats

    def materialize_dedup(
        self,
        plan: QueryPlan,
        dedup: LatestVersionDedup,
        stats: ExecutionStats,
    ) -> RowBatch:
        """The winners' rows as one chunk of the output columns, in
        winner order.

        Handles are grouped per source: a LogBlock reader reads its
        winners in one selection (readers overlapped like the block
        loop), a realtime chunk hands over its rows.  Only here do the
        wide output columns get read — the losing versions never touch
        them.
        """
        winners = dedup.winners()
        stats.dedup_winners += len(winners)
        columns = plan.output_columns or plan.schema.column_names()
        by_source: dict[int, tuple[object, list[tuple[int, int]]]] = {}
        for position, entry in enumerate(winners):
            source, row = entry.payload
            by_source.setdefault(id(source), (source, []))[1].append((row, position))
        positions: list[int] = []
        chunks: list[RowBatch] = []

        def fetch(group: tuple[object, list[tuple[int, int]]]) -> None:
            source, pairs = group
            rows, at = zip(*sorted(pairs))
            if isinstance(source, RowBatch):
                chunks.append(source.take(list(rows), columns))
            else:
                matched = source.select(np.array(rows))
                chunks.append(self._read_chunk(source, matched, columns, stats))
            positions.extend(at)

        self._overlapped(list(by_source.values()), fetch)
        return RowBatch.concat(chunks).take(np.argsort(positions).tolist(), columns)


def filter_realtime_rows(
    plan: QueryPlan,
    rows,
    limit: int | None = None,
    stats: ExecutionStats | None = None,
) -> RowSelection:
    """The row-store rows the plan's predicate matches, in order.

    ``rows`` is the selection a realtime scan returns (or a batch, or
    plain row dicts, which are admitted into one).  ``limit`` keeps the
    first that many matches — safe only when the plan has no ORDER
    BY or aggregation (i.e. ``plan.row_limit`` semantics: any N matching
    rows satisfy the query).

    The predicate tree is compiled once and evaluated over the
    selection's predicate columns (:func:`selection_columns`).  The
    matches stay a selection of the memtable's columns: an aggregate
    folds its typed vectors, a SELECT projects its output columns.
    """
    selection = RowSelection.of(rows)
    if plan.where is None or not len(selection):
        hits = np.arange(len(selection))
    else:
        hits = np.flatnonzero(compile_expr(plan.where)(selection_columns(selection)))
        if stats is not None:
            stats.realtime_rows_vectorized += len(selection)
    if limit is not None:
        hits = hits[: max(limit, 0)]
    return selection if len(hits) == len(selection) else selection.pick(hits)
