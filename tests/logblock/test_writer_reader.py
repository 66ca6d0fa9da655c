"""LogBlock write/read roundtrip tests."""

import hashlib
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec import get_codec
from repro.common.errors import QueryError, SerializationError
from repro.logblock.bkd import BkdIndex, BkdIndexBuilder
from repro.logblock.inverted import InvertedIndex, InvertedIndexBuilder
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import ColumnType, IndexType, request_log_schema
from repro.logblock.sma import Sma
from repro.logblock.writer import LogBlockMeta, LogBlockWriter, index_member
from repro.oss.store import InMemoryObjectStore
from repro.tarpack.reader import PackReader

from tests.conftest import make_rows, write_logblock


def reader_for(blob: bytes) -> LogBlockReader:
    store = InMemoryObjectStore()
    store.create_bucket("b")
    store.put("b", "k", blob)
    return LogBlockReader(PackReader(store, "b", "k"))


class TestWriter:
    def test_row_count_tracking(self):
        writer = LogBlockWriter(request_log_schema(), codec="zlib")
        writer.append_many(make_rows(10))
        assert writer.row_count == 10

    def test_finish_twice_rejected(self):
        writer = LogBlockWriter(request_log_schema(), codec="zlib")
        writer.append_many(make_rows(1))
        writer.finish()
        with pytest.raises(SerializationError):
            writer.finish()

    def test_append_after_finish_rejected(self):
        writer = LogBlockWriter(request_log_schema(), codec="zlib")
        writer.finish()
        with pytest.raises(SerializationError):
            writer.append(make_rows(1)[0])

    def test_validation_catches_bad_rows(self):
        writer = LogBlockWriter(request_log_schema(), codec="zlib")
        with pytest.raises(Exception):
            writer.append({"tenant_id": "not an int"})

    def test_bad_block_rows(self):
        with pytest.raises(ValueError):
            LogBlockWriter(request_log_schema(), block_rows=0)


class TestMetaRoundtrip:
    def test_meta_fields(self):
        rows = make_rows(300)
        reader = reader_for(write_logblock(rows, block_rows=64))
        meta = reader.meta()
        assert meta.row_count == 300
        assert meta.n_blocks == 5
        assert meta.block_row_counts == [64, 64, 64, 64, 44]
        assert meta.schema == request_log_schema()

    def test_meta_bytes_roundtrip(self):
        rows = make_rows(100)
        reader = reader_for(write_logblock(rows))
        meta = reader.meta()
        decoded = LogBlockMeta.from_bytes(meta.to_bytes())
        assert decoded.row_count == meta.row_count
        assert decoded.block_row_counts == meta.block_row_counts
        assert decoded.index_sizes == meta.index_sizes

    def test_column_sma(self):
        rows = make_rows(100)
        reader = reader_for(write_logblock(rows))
        sma = reader.meta().column_sma("ts")
        assert sma.min_value == rows[0]["ts"]
        assert sma.max_value == rows[-1]["ts"]

    def test_column_sma_sum(self):
        rows = make_rows(100)
        reader = reader_for(write_logblock(rows))
        sma = reader.meta().column_sma("latency")
        assert sma.sum_value == sum(r["latency"] for r in rows)
        # Non-numeric columns carry no sum even in the v3 format.
        assert reader.meta().column_sma("ip").sum_value is None

    def test_a_v7_meta_decodes_into_the_v8_form(self):
        """v7 and v8 metas share one layout past the v7 checksum: the v7
        fixture's meta holds the golden corpus's SMAs slot for slot, and
        re-encodes as itself without the checksum, stamped v8."""
        raw = reader_for(V7_FIXTURE.read_bytes()).pack.read_member("meta")
        old, new = LogBlockMeta.from_bytes(raw), reader_for(golden_block()).meta()
        assert (old.version, new.version) == (7, 8)
        assert old.to_bytes() == raw[:4] + b"\x08" + raw[9:]
        assert old.bloom_sizes == {name: size + 4 for name, size in new.bloom_sizes.items()}
        for column in new.schema.column_names():
            assert old.column_sma(column) == new.column_sma(column)
            for block_idx in range(new.n_blocks):
                theirs = old.block_header(column, block_idx)
                ours = new.block_header(column, block_idx)
                assert (theirs.row_count, theirs.sma) == (ours.row_count, ours.sma)

    @pytest.mark.parametrize("version", [0, 5, 6, 9, 255])
    def test_a_version_outside_the_read_window_is_refused(self, version):
        raw = bytearray(reader_for(write_logblock(make_rows(20))).meta().to_bytes())
        raw[4] = version
        with pytest.raises(SerializationError, match=f"version {version}$"):
            LogBlockMeta.from_bytes(bytes(raw))

    def test_opening_a_meta_builds_no_sma(self, monkeypatch):
        """Probe, don't parse: SMAs exist for the columns a caller asks
        about, never for the ones the member merely contains."""
        built: list[int] = []
        real_init = Sma.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        raw = reader_for(write_logblock(make_rows(300), block_rows=64)).meta().to_bytes()
        monkeypatch.setattr(Sma, "__init__", counting_init)
        meta = LogBlockMeta.from_bytes(raw)
        assert built == []
        meta.column_sma("ts"), meta.column_sma("latency")
        assert len(built) == 2
        meta.block_header("latency", 3)
        assert len(built) == 3

    def test_self_contained_after_rename(self):
        """§3.2: a LogBlock 'can still be resolved after being renamed'."""
        blob = write_logblock(make_rows(50))
        store = InMemoryObjectStore()
        store.create_bucket("b")
        store.put("b", "totally/different/name.bin", blob)
        reader = LogBlockReader(PackReader(store, "b", "totally/different/name.bin"))
        assert reader.row_count == 50
        assert reader.meta().schema.name == "request_log"


class TestColumnReads:
    def test_full_column(self):
        rows = make_rows(150)
        reader = reader_for(write_logblock(rows, block_rows=40))
        assert reader.read_column("latency") == [r["latency"] for r in rows]
        assert reader.read_column("log") == [r["log"] for r in rows]
        assert reader.read_column("fail") == [r["fail"] for r in rows]

    def test_single_block(self):
        rows = make_rows(100)
        reader = reader_for(write_logblock(rows, block_rows=30))
        assert reader.read_block("ip", 1) == [r["ip"] for r in rows[30:60]]

    def test_block_out_of_range(self):
        reader = reader_for(write_logblock(make_rows(10)))
        with pytest.raises(QueryError):
            reader.read_block("ip", 5)

    def test_block_of_row(self):
        reader = reader_for(write_logblock(make_rows(100), block_rows=30))
        assert reader.block_of_row(0) == (0, 0)
        assert reader.block_of_row(29) == (0, 29)
        assert reader.block_of_row(30) == (1, 0)
        assert reader.block_of_row(99) == (3, 9)
        with pytest.raises(QueryError):
            reader.block_of_row(100)

    def test_read_rows_projection(self):
        rows = make_rows(50)
        reader = reader_for(write_logblock(rows, block_rows=16))
        out = reader.read_rows([0, 17, 49], ["ts", "ip"])
        assert out == [
            {"ts": rows[i]["ts"], "ip": rows[i]["ip"]} for i in (0, 17, 49)
        ]


class TestIndexes:
    def test_inverted_index_types(self):
        reader = reader_for(write_logblock(make_rows(50)))
        assert isinstance(reader.read_index("ip"), InvertedIndex)
        assert isinstance(reader.read_index("log"), InvertedIndex)
        assert isinstance(reader.read_index("latency"), BkdIndex)
        assert isinstance(reader.read_index("fail"), BkdIndex)

    def test_index_content(self):
        rows = make_rows(100)
        reader = reader_for(write_logblock(rows))
        ip_index = reader.read_index("ip")
        expected = [i for i, r in enumerate(rows) if r["ip"] == "192.168.0.3"]
        assert list(ip_index.lookup("192.168.0.3")) == expected

    def test_indexes_disabled(self):
        writer = LogBlockWriter(request_log_schema(), codec="zlib", build_indexes=False)
        writer.append_many(make_rows(10))
        reader = reader_for(writer.finish())
        assert reader.meta().index_sizes == {}

    @pytest.mark.parametrize("codec", ["none", "zlib", "lzma"])
    def test_codecs(self, codec):
        rows = make_rows(60)
        reader = reader_for(write_logblock(rows, codec=codec))
        assert reader.read_column("ts") == [r["ts"] for r in rows]


class TestEmptyAndEdge:
    def test_empty_block(self):
        reader = reader_for(write_logblock([]))
        assert reader.row_count == 0
        assert reader.meta().n_blocks == 0

    def test_single_row(self):
        rows = make_rows(1)
        reader = reader_for(write_logblock(rows))
        assert reader.read_column("log") == [rows[0]["log"]]

    def test_nulls_roundtrip(self):
        rows = make_rows(10)
        for row in rows[::2]:
            row["ip"] = None
            row["latency"] = None
        writer = LogBlockWriter(request_log_schema(), codec="zlib", validate_rows=False)
        writer.append_many(rows)
        reader = reader_for(writer.finish())
        assert reader.read_column("ip") == [r["ip"] for r in rows]
        assert reader.read_column("latency") == [r["latency"] for r in rows]


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    n_rows=st.integers(min_value=0, max_value=200),
    block_rows=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=10),
)
def test_property_full_roundtrip(n_rows, block_rows, seed):
    """Any (row count, block size) combination roundtrips exactly."""
    rows = make_rows(n_rows, seed=seed)
    reader = reader_for(write_logblock(rows, block_rows=block_rows))
    schema = request_log_schema()
    for column in schema.column_names():
        assert reader.read_column(column) == [r[column] for r in rows]


# -- format stability ---------------------------------------------------------


def golden_corpus() -> list[dict]:
    """3 000 seeded rows: nulls, empty and non-ASCII text, tokens past
    the truncation length, tokens repeated in a row, a wide-delta term."""
    import random

    rng = random.Random(20201111)
    extras = ("İstanbul", "5K", "Straße", "x" * 140, "retry retry retry", "", "naïve-é")
    rows = []
    for i in range(3000):
        latency = max(1, int(rng.lognormvariate(3.2, 0.9)))
        fail = rng.random() < 0.03
        ip = None if rng.random() < 0.02 else f"10.0.{rng.randrange(3)}.{rng.randrange(40)}"
        api = f"/api/v1/op{rng.randrange(5)}"
        log = (
            f"{rng.choice(('GET', 'POST'))} {api} rid_{rng.randrange(1 << 30)} from {ip} "
            f"took {latency}ms status {'error' if fail else 'ok'}"
        )
        if rng.random() < 0.1:
            log += " " + rng.choice(extras)
        if i % 1499 == 7:
            log += " needle"
        rows.append(
            {
                "tenant_id": 7,
                "ts": 1_605_052_800_000_000 + i * 1_200_000,
                "ip": ip,
                "api": api,
                "latency": None if rng.random() < 0.01 else latency,
                "fail": fail,
                "log": None if rng.random() < 0.01 else log,
            }
        )
    return rows


# sha256 of the packed LogBlock of the golden corpus, per format version.
# LogBlocks in object storage are immutable, so a writer change that
# moves the current value is a format change: bump META_VERSION, keep a
# decoder for the old one and pin the old bytes as a fixture — do not
# just update the hash.
#
# tests/fixtures/logblock_v7_golden.lgb is the last v7 writer's output
# (a v2 manifest without member checksums; meta, index and Bloom members
# that checksum themselves).
GOLDEN_V7_SHA256 = "d5ee2fab2a0d8454dfc329da69eea04805a4b61ad2776bb1de762009cdad21e5"
GOLDEN_V8_SHA256 = "19c93194a51e731f37b6718679c262c57ec40fef8b1cf409a342e889d81e03dc"
V7_FIXTURE = Path(__file__).parent.parent / "fixtures" / "logblock_v7_golden.lgb"

def golden_block() -> bytes:
    writer = LogBlockWriter(request_log_schema(), codec="zlib", block_rows=1024)
    rows = golden_corpus()
    writer.append_many(rows[:1700])
    writer.append_many(rows[1700:])
    return writer.finish()


def test_packed_bytes_are_those_of_the_golden_corpus():
    assert hashlib.sha256(golden_block()).hexdigest() == GOLDEN_V8_SHA256


@pytest.mark.parametrize("how", ["append", "append_many", "append_columns", "mixed"])
def test_the_pack_does_not_depend_on_how_the_rows_arrived(how):
    """Blocks, SMAs, indexes and Bloom filters are functions of the
    columns: any cut of the corpus into any append calls is one pack."""
    rows = golden_corpus()
    names = request_log_schema().column_names()
    writer = LogBlockWriter(request_log_schema(), codec="zlib", block_rows=1024)
    cuts = [0, 1, 18, 1024, 1041, 2047, 2500, 3000]
    for n, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        call = how if how != "mixed" else ("append", "append_many", "append_columns")[n % 3]
        if call == "append":
            for row in rows[lo:hi]:
                writer.append(row)
        elif call == "append_many":
            writer.append_many(rows[lo:hi])
        else:
            writer.append_columns({name: [row[name] for row in rows[lo:hi]] for name in names})
    assert hashlib.sha256(writer.finish()).hexdigest() == GOLDEN_V8_SHA256


def test_index_builders_fed_row_by_row_build_the_golden_members():
    """``add`` — the builders' per-row API — yields the index members of
    the pinned pack; a null counts as a row and adds no point or term."""
    rows = golden_corpus()
    reader = reader_for(golden_block())
    codec = get_codec("zlib")
    for col in request_log_schema().columns:
        values = [row[col.name] for row in rows] + [None]
        if col.index is IndexType.BKD:
            builder = BkdIndexBuilder(is_float=col.ctype is ColumnType.FLOAT64)
        else:
            builder = InvertedIndexBuilder(tokenize=col.tokenize)
        for row_id, value in enumerate(values[:-1]):
            builder.add(row_id, value)
        stored = codec.decompress(reader._pack.read_member(index_member(col.name)))
        assert builder.build().to_bytes() == stored
        builder.add(len(rows), values[-1])
        index = builder.build()
        assert index.row_count == len(values)
        present = len(values) - values.count(None)
        if col.index is IndexType.BKD:
            assert len(index.range_rows()) == present
        elif not col.tokenize:
            assert sum(len(index.lookup(term)) for term in index.terms()) == present


def test_the_v7_fixture_is_the_v7_writers_output():
    blob = V7_FIXTURE.read_bytes()
    assert len(blob) == 107_560 and hashlib.sha256(blob).hexdigest() == GOLDEN_V7_SHA256


def test_the_v7_fixture_reads_back_the_golden_corpus():
    reader = reader_for(V7_FIXTURE.read_bytes())
    rows = golden_corpus()
    assert (reader.meta().version, reader.pack.manifest().version) == (7, 2)
    for column in request_log_schema().column_names():
        assert reader.read_column(column) == [row[column] for row in rows]
    assert reader.read_index("log").lookup("needle").tolist() == [7, 1506]
    assert reader.read_bloom("ip").might_contain("10.0.1.7")


def test_v8_moves_the_member_checksums_into_the_manifest_only():
    """Every column block is the v7 member, byte for byte; every v7
    index and Bloom member is the v8 one behind its CRC-32 of the rest,
    and the v3 manifest holds a CRC-32 per member instead.  (The metas
    differ in those members' sizes.)"""
    old = reader_for(V7_FIXTURE.read_bytes()).pack
    new = reader_for(golden_block()).pack
    assert old.member_names() == new.member_names()
    assert (old.manifest().crcs, len(new.manifest().crcs)) == (None, len(new.member_names()))
    codec = get_codec("zlib")
    for name in new.member_names()[1:]:
        theirs, ours = old.read_member(name), new.read_member(name)
        if name.startswith("idx/"):
            theirs, ours = codec.decompress(theirs), codec.decompress(ours)
        if name.startswith(("idx/", "bloom/")):
            assert zlib.crc32(theirs[4:]) == int.from_bytes(theirs[:4], "little"), name
            theirs = theirs[4:]
        assert theirs == ours, name
