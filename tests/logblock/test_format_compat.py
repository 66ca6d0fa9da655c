"""One reader, two LogBlock formats: v7 and v8 answer alike.

The golden corpus exists twice — the committed v7 pack (the last v7
writer's real output, its meta, index and Bloom members checksumming
themselves under a v2 manifest) and the v8 pack the writer emits (every
member's checksum in the v3 manifest) — and every predicate shape must
return the same rows from both, with skipping on and off.  Right answers are not enough: a
format whose index quietly stops being used (a decoder returning an
object the pruning code does not recognise) still answers correctly
from the scan path, only slower and with more bytes read.  So
index-answerable shapes must also report an index lookup.

Also here: the "materialise only what is asked for" count at query
level.  The members' damage cases run from the table of
``tests/formats/test_corruption.py``.
"""

import zlib

import pytest

from repro.builder.compaction import rewrite_blocks
from repro.common.errors import SerializationError
from repro.cache.multilevel import CachingRangeReader, MultiLevelCache
from repro.common.clock import VirtualClock
from repro.logblock.schema import request_log_schema
from repro.logblock.sma import SmaTable
from repro.meta.catalog import Catalog, LogBlockEntry
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.executor import BlockExecutor, ExecutionOptions
from repro.query.planner import QueryPlanner
from repro.query.sql import parse_sql

from tests.logblock.test_writer_reader import V7_FIXTURE, golden_block, golden_corpus, reader_for

BUCKET = "formats"
TENANT = "tenant_id = 7"


class Corpus:
    """One packed LogBlock behind a catalog, planner and executor."""

    def __init__(self, blob: bytes, rows: list[dict], use_skipping: bool) -> None:
        schema = request_log_schema()
        catalog = Catalog(schema)
        store = MeteredObjectStore(InMemoryObjectStore(), free(), VirtualClock())
        store.create_bucket(BUCKET)
        store.put(BUCKET, "tenants/7/golden.lgb", blob)
        catalog.add_block(
            LogBlockEntry(
                tenant_id=7,
                min_ts=rows[0]["ts"],
                max_ts=rows[-1]["ts"],
                path="tenants/7/golden.lgb",
                size_bytes=len(blob),
                row_count=len(rows),
            )
        )
        self.planner = QueryPlanner(catalog)
        self.executor = BlockExecutor(
            CachingRangeReader(store, MultiLevelCache(memory_bytes=1 << 22, ssd_bytes=1 << 24)),
            BUCKET,
            ExecutionOptions(use_skipping=use_skipping),
        )

    def run(self, sql: str):
        parsed = parse_sql(sql)
        plan = self.planner.plan(parsed)
        if parsed.is_aggregate:
            aggregator, stats = self.executor.execute_aggregate(plan)
            return aggregator.results(), stats
        chunk, stats = self.executor.execute(plan)
        return chunk.to_dicts(), stats


@pytest.fixture(scope="module")
def rows() -> list[dict]:
    return golden_corpus()


@pytest.fixture(scope="module")
def blobs() -> dict[int, bytes]:
    return {7: V7_FIXTURE.read_bytes(), 8: golden_block()}


@pytest.fixture(scope="module")
def corpora(blobs, rows):
    return {
        (version, use_skipping): Corpus(blob, rows, use_skipping)
        for version, blob in blobs.items()
        for use_skipping in (True, False)
    }


# (SQL, python oracle over one row, whether an index answers it)
SHAPES = [
    ("SELECT ts FROM request_log WHERE {t} AND ip = '10.0.1.7'",
     lambda r: r["ip"] == "10.0.1.7", True),
    ("SELECT ts FROM request_log WHERE {t} AND latency = 12",
     lambda r: r["latency"] == 12, True),
    ("SELECT ts FROM request_log WHERE {t} AND ip IN ('10.0.0.1', '10.0.2.39', '10.9.9.9')",
     lambda r: r["ip"] in ("10.0.0.1", "10.0.2.39"), True),
    ("SELECT ts FROM request_log WHERE {t} AND latency >= 100 AND latency < 300",
     lambda r: r["latency"] is not None and 100 <= r["latency"] < 300, True),
    ("SELECT ts FROM request_log WHERE {t} AND ts >= 1605053000000000 AND ts < 1605054000000000",
     lambda r: 1605053000000000 <= r["ts"] < 1605054000000000, True),
    ("SELECT ts FROM request_log WHERE {t} AND MATCH(log, 'needle')",
     lambda r: r["log"] is not None and " needle" in r["log"], True),
    ("SELECT ts FROM request_log WHERE {t} AND MATCH(log, 'error POST')",
     lambda r: r["log"] is not None and "status error" in r["log"] and r["log"].startswith("POST"),
     True),
    ("SELECT ts FROM request_log WHERE {t} AND MATCH(log, 'error nosuchterm')",
     lambda r: False, True),
    ("SELECT ts FROM request_log WHERE {t} AND MATCH(log, 'İstanbul')",
     lambda r: r["log"] is not None and r["log"].endswith("İstanbul"), True),
    ("SELECT ts FROM request_log WHERE {t} AND ip LIKE '10.0.1.1%'",
     lambda r: r["ip"] is not None and r["ip"].startswith("10.0.1.1"), True),
    ("SELECT ts FROM request_log WHERE {t} AND ip IS NULL", lambda r: r["ip"] is None, False),
    ("SELECT ts FROM request_log WHERE {t} AND latency IS NULL AND fail = true",
     lambda r: r["latency"] is None and r["fail"], True),
]


class TestEveryFormatAnswersAlike:
    @pytest.mark.parametrize("sql, oracle, indexed", SHAPES)
    def test_rows_and_index_use(self, corpora, rows, sql, oracle, indexed):
        sql = sql.format(t=TENANT)
        expected = [{"ts": row["ts"]} for row in rows if oracle(row)]
        assert expected or "nosuchterm" in sql  # no shape passes vacuously
        for (version, use_skipping), corpus in corpora.items():
            got, stats = corpus.run(sql)
            assert got == expected, (version, use_skipping)
            if use_skipping and indexed:
                assert stats.prune.index_lookups > 0, f"v{version} fell off the index path"
            if not use_skipping:
                assert stats.prune.index_lookups == 0

    def test_aggregates_fold_from_the_smas(self, corpora, rows):
        sql = (
            "SELECT COUNT(*), COUNT(latency), MIN(latency), MAX(latency), SUM(latency), "
            f"MIN(ts), MAX(ip) FROM request_log WHERE {TENANT} AND latency >= 0 OR latency IS NULL"
        )
        latencies = [row["latency"] for row in rows if row["latency"] is not None]
        expected = [
            {
                "COUNT(*)": len(rows),
                "COUNT(latency)": len(latencies),
                "MIN(latency)": min(latencies),
                "MAX(latency)": max(latencies),
                "SUM(latency)": sum(latencies),
                "MIN(ts)": rows[0]["ts"],
                "MAX(ip)": max(row["ip"] for row in rows if row["ip"] is not None),
            }
        ]
        for (version, use_skipping), corpus in corpora.items():
            got, stats = corpus.run(sql)
            assert got == expected, (version, use_skipping)
            # Every row matches: both fold from the meta alone.
            assert stats.pushdown.agg_sma_blocks == 1, (version, use_skipping)

    def test_every_read_path_returns_the_same_values(self, blobs, rows):
        """Whole columns, picked rows, and the decoded block forms."""
        readers = {version: reader_for(blob) for version, blob in blobs.items()}
        picked = [0, 1, 2, 700, 1023, 1024, 2047, 2999]
        for column in request_log_schema().column_names():
            answers = {
                version: (reader.read_column(column), reader.read_rows(picked, [column]))
                for version, reader in readers.items()
            }
            assert answers[7] == answers[8]
            assert answers[8][0] == [row[column] for row in rows]

    def test_v8_adds_a_checksum_per_column_block_only(self, blobs):
        """The other members' checksums move into the manifest: a v8
        pack is 4 bytes a column block larger, give or take what a CRC
        cost inside a compressed index and the size varints."""
        blocks = sum(name.startswith("col/") for name in reader_for(blobs[8]).pack.member_names())
        assert abs(len(blobs[8]) - len(blobs[7]) - 4 * blocks) < 16

    def test_a_v6_pack_is_refused_by_its_version(self, blobs):
        """v6 left the read window: its meta's version byte is named."""
        reader = reader_for(blobs[7])
        start, length = reader.member_extent("meta")
        meta = bytearray(blobs[7][start : start + length])
        meta[4] = 6
        meta[5:9] = zlib.crc32(meta[9:], zlib.crc32(meta[4:5])).to_bytes(4, "little")
        v6 = blobs[7][:start] + bytes(meta) + blobs[7][start + length :]
        with pytest.raises(SerializationError, match="LogBlock meta version 6"):
            reader_for(v6).meta()


class TestOldBlocksMoveForwardOnRewrite:
    def test_compaction_rewrites_v7_victims_as_v8(self, blobs, rows):
        """Nothing migrates old blocks in place; whatever rewrites one —
        compaction, the cold compactor — goes through the v8 writer."""
        store = InMemoryObjectStore()
        store.create_bucket(BUCKET)
        victims = []
        for version in (7, 8):
            path = f"tenants/7/v{version}.lgb"
            store.put(BUCKET, path, blobs[version])
            victims.append(
                LogBlockEntry(7, rows[0]["ts"], rows[-1]["ts"], path, len(blobs[version]), len(rows))
            )
        rewritten = rewrite_blocks(
            store, BUCKET, victims, request_log_schema(), target_rows=10_000,
            codec="zlib", block_rows=1024,
        )
        assert len(rewritten) == 1
        reader = reader_for(rewritten[0][1])
        assert reader.meta().version == 8 and reader.row_count == 2 * len(rows)
        assert reader.pack.manifest().version == 3
        # Merged by ts, ties in victim order: every row twice in a row.
        assert reader.read_column("log") == [row["log"] for row in rows for _ in range(2)]
        assert reader.read_index("log").lookup("needle").tolist() == [14, 15, 3012, 3013]


class TestMaterialiseWhatIsAsked:
    def test_a_query_on_two_columns_builds_smas_for_those_two(self, blobs, rows, monkeypatch):
        corpus = Corpus(blobs[8], rows, use_skipping=True)
        meta = reader_for(blobs[8]).meta()
        per_column = meta.n_blocks + 1
        touched: set[str] = set()
        real = SmaTable.sma

        def recording(self, slot, row_count):
            touched.add(meta.schema.columns[slot // per_column].name)
            return real(self, slot, row_count)

        monkeypatch.setattr(SmaTable, "sma", recording)
        got, _stats = corpus.run(
            "SELECT api FROM request_log WHERE ts >= 1605053000000000 AND latency >= 400"
        )
        assert got and touched == {"ts", "latency"}
