"""Write-side encode kernels: byte-identity differential suites.

The contract under test is absolute: every byte the vectorized encode
path produces — block payloads, SMAs, indexes, blooms, the whole packed
LogBlock — must equal the interpreted reference encoder's output
(``LogBlockWriter(vectorized=False)``, a seam only these tests reach).
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.logblock.bloom import BloomFilter
from repro.common.strings import Strings
from repro.logblock.column import decode_block, decode_block_arrays, encode_block
from repro.logblock.encode_kernels import (
    EncodeFallback,
    EncodeStats,
    column_array,
    compute_sma_range,
    encode_block_range,
    prepare_column,
)
from repro.logblock.pruning import (
    EqPredicate,
    InPredicate,
    MatchPredicate,
    NePredicate,
    NotNullPredicate,
    NullPredicate,
    PrefixPredicate,
    PruneStats,
    RangePredicate,
    column_mask,
    dict_codes_block_mask,
    evaluate_predicates,
)
from repro.logblock.schema import (
    ColumnSpec,
    ColumnType,
    IndexType,
    TableSchema,
    request_log_schema,
)
from repro.logblock.sma import Sma, SmaTable, compute_sma, compute_sma_arrays
from repro.logblock.writer import LogBlockWriter
from repro.tarpack.reader import PackReader

from tests.conftest import make_rows, write_logblock
from tests.oracle import matches
from tests.logblock.test_tokenizer import column_text
from tests.logblock.test_writer_reader import reader_for


def sma_bytes(sma: Sma) -> tuple:
    """An SMA as the meta stores it: the bit-exact comparator (-0.0 vs
    0.0, int vs float, NaN payloads)."""
    table = SmaTable.from_smas([sma])
    return (
        sma.row_count,
        table.null_counts.tobytes(),
        table.kinds,
        table.ints.tobytes(),
        table.floats.tobytes(),
        table.strings,
    )


def oracle_pack(schema, rows, codec="zlib", block_rows=64, **kw) -> bytes:
    """Reference bytes: per-row appends through the interpreted encoder."""
    writer = LogBlockWriter(
        schema, codec=codec, block_rows=block_rows, vectorized=False, **kw
    )
    for row in rows:
        writer.append(row)
    return writer.finish()


def prepare(values: list, ctype: ColumnType, trusted: bool = False):
    """``prepare_column`` over a value list, in the writer's one input form."""
    return prepare_column(column_array(values, ctype), ctype, trusted=trusted)


def unpack_members(blob: bytes) -> dict[str, bytes]:
    """Pack bytes → {member name: payload} for member-by-member diffs."""
    from repro.oss.store import InMemoryObjectStore

    store = InMemoryObjectStore()
    store.create_bucket("b")
    store.put("b", "k", blob)
    pack = PackReader(store, "b", "k")
    return {name: pack.read_member(name) for name in pack.member_names()}


# ---------------------------------------------------------------------------
# prepare_column type gates


class TestPrepareColumn:
    def test_int_gate(self):
        with pytest.raises(EncodeFallback, match="non-int"):
            prepare([1, "x"], ColumnType.INT64)
        with pytest.raises(EncodeFallback, match="non-int"):
            prepare([True], ColumnType.INT64)  # bool is not an int here

    def test_float_gate(self):
        with pytest.raises(EncodeFallback, match="non-float"):
            prepare([1.0, "x"], ColumnType.FLOAT64)
        prepare([1.0, 2, None], ColumnType.FLOAT64)  # ints arrive as floats

    def test_bool_and_str_gates(self):
        with pytest.raises(EncodeFallback, match="non-bool"):
            prepare([True, 1], ColumnType.BOOL)
        with pytest.raises(EncodeFallback, match="non-str"):
            prepare(["a", 1], ColumnType.STRING)

    def test_int64_overflow_falls_back(self):
        with pytest.raises(EncodeFallback, match="overflow"):
            prepare([2**63], ColumnType.INT64)

    def test_trusted_skips_gate(self):
        # Trusted callers vouch for the types; the gate does not run.
        prep = prepare([1, None, 3], ColumnType.INT64, trusted=True)
        assert list(prep.null_mask) == [False, True, False]
        assert prep.vector.dtype == np.int64

    def test_float_column_with_ints_is_a_float_column(self):
        prep = prepare([1, 2.5, None], ColumnType.FLOAT64)
        sma, reason = compute_sma_range(prep, 0, 3)
        assert reason is None and repr((sma.min_value, sma.max_value)) == "(1.0, 2.5)"
        assert sma_bytes(sma) == sma_bytes(compute_sma([1.0, 2.5, None], ColumnType.FLOAT64))
        assert encode_block_range(prep, 0, 3) == encode_block(
            [1.0, 2.5, None], ColumnType.FLOAT64
        )


# ---------------------------------------------------------------------------
# encode_block_range ≡ encode_block, all types × null layouts

NULL_LAYOUTS = {
    "none": lambda n: [False] * n,
    "all": lambda n: [True] * n,
    "alternating": lambda n: [i % 2 == 0 for i in range(n)],
    "leading": lambda n: [i < n // 3 for i in range(n)],
    "trailing": lambda n: [i >= 2 * n // 3 for i in range(n)],
}


def _values_for(ctype: ColumnType, n: int, layout) -> list:
    nulls = NULL_LAYOUTS[layout](n)
    if ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
        raw = [(-1) ** i * (i * 7919) for i in range(n)]
    elif ctype is ColumnType.FLOAT64:
        raw = [i * 0.25 + 0.125 for i in range(n)]
    elif ctype is ColumnType.BOOL:
        raw = [i % 3 == 0 for i in range(n)]
    else:
        raw = [f"v{i % 5}" for i in range(n)]  # low cardinality → DICT
    return [None if is_null else v for v, is_null in zip(raw, nulls)]


# name -> (values, whether the oracle stores the block PLAIN)
STRING_BLOCKS = {
    # DICT needs >= 16 rows: 15 is PLAIN, 16 is DICT.
    "15 rows": ([f"v{i % 4}" for i in range(15)], True),
    "16 rows": ([f"v{i % 4}" for i in range(16)], False),
    # Exactly 0.5 distinct/present takes DICT; one more distinct is PLAIN.
    "distinct at half": ([f"v{i % 10}" for i in range(20)], False),
    "distinct over half": ([f"v{i}" for i in range(11)] + ["v0"] * 9, True),
    "half of present, nulls aside": ([None] * 12 + [f"v{i % 10}" for i in range(20)], False),
    "over half of present, nulls aside": (
        [None] * 12 + [f"v{i}" for i in range(11)] + ["v0"] * 9,
        True,
    ),
    "all null": ([None] * 32, True),
    "empty strings beside nulls, plain": (["", None, "x", "", None, "y", "z", ""], True),
    "empty strings beside nulls, dict": (["", None, "x", ""] * 8, False),
    "multi-byte, plain": ([f"αβγ-{i}-日本語-\U0001f600" for i in range(40)], True),
    "multi-byte, dict": ([("é", "日本", "\U0001f600", None)[i % 4] for i in range(40)], False),
    # 128 UTF-8 bytes take a two-byte length prefix, 16 384 a three-byte one.
    "128-byte value, plain": (["a" * 127, "b" * 128, "é" * 64, "c"], True),
    "128-byte value, dict": (["b" * 128, "é" * 64] * 10, False),
    "16384-byte value, plain": (["a" * 16_383, "b" * 16_384, "日" * 5_462], True),
    "16384-byte value, dict": (["b" * 16_384, None, "x"] * 8, False),
}


class TestBlockDifferential:
    @pytest.mark.parametrize("layout", sorted(NULL_LAYOUTS))
    @pytest.mark.parametrize(
        "ctype",
        [
            ColumnType.INT64,
            ColumnType.TIMESTAMP,
            ColumnType.FLOAT64,
            ColumnType.BOOL,
            ColumnType.STRING,
        ],
    )
    def test_matches_oracle(self, ctype, layout):
        values = _values_for(ctype, 100, layout)
        prep = prepare(values, ctype)
        for start, stop in [(0, 100), (0, 64), (64, 100), (10, 11), (50, 50)]:
            payload = encode_block_range(prep, start, stop)
            assert payload == encode_block(values[start:stop], ctype)
            # And the round trip restores the exact python values.
            assert (
                decode_block(payload, ctype, stop - start) == values[start:stop]
            )

    @pytest.mark.parametrize("name", sorted(STRING_BLOCKS))
    def test_string_block_matches_oracle(self, name):
        values, plain = STRING_BLOCKS[name]
        prep = prepare(values, ColumnType.STRING)
        payload = encode_block_range(prep, 0, len(values))
        assert payload == encode_block(values, ColumnType.STRING)
        # PLAIN and DICT are both the kernels' own work now; which one
        # a block takes is the oracle's choice, reproduced.
        decoded = decode_block_arrays(payload, ColumnType.STRING, len(values))
        assert isinstance(decoded, Strings) == plain
        assert decode_block(payload, ColumnType.STRING, len(values)) == values
        # Any sub-range of the column is the oracle's bytes too (the
        # ranking is the column's, the dictionary the block's).
        lo, hi = len(values) // 3, len(values) - 1
        assert encode_block_range(prep, lo, hi) == encode_block(
            values[lo:hi], ColumnType.STRING
        )

    def test_lone_surrogate_raises_like_the_oracle(self):
        for values in (["ok", "\ud800"], ["a", "\ud800"] * 16):  # PLAIN, DICT
            with pytest.raises(UnicodeEncodeError):
                encode_block(values, ColumnType.STRING)
            with pytest.raises(UnicodeEncodeError):  # joining the values
                encode_block_range(prepare(values, ColumnType.STRING), 0, len(values))

    def test_large_dictionary_multibyte_codes(self):
        # > 127 distinct values forces multi-byte LEB128 codes for the
        # high codes — the generic uvarint kernel, not the 1-byte cast.
        values = [f"k{i % 200:04d}" for i in range(500)]
        prep = prepare(values, ColumnType.STRING)
        payload = encode_block_range(prep, 0, 500)
        assert payload == encode_block(values, ColumnType.STRING)
        codes, dictionary, nulls = decode_block_arrays(
            payload, ColumnType.STRING, 500)
        assert len(dictionary) == 200
        assert decode_block(payload, ColumnType.STRING, 500) == values


# ---------------------------------------------------------------------------
# compute_sma_range ≡ compute_sma


class TestSmaDifferential:
    @pytest.mark.parametrize("layout", sorted(NULL_LAYOUTS))
    @pytest.mark.parametrize(
        "ctype",
        [
            ColumnType.INT64,
            ColumnType.TIMESTAMP,
            ColumnType.FLOAT64,
            ColumnType.BOOL,
            ColumnType.STRING,
        ],
    )
    def test_matches_oracle(self, ctype, layout):
        values = _values_for(ctype, 100, layout)
        prep = prepare(values, ctype)
        for start, stop in [(0, 100), (0, 64), (64, 100), (50, 50)]:
            sma, _reason = compute_sma_range(prep, start, stop)
            oracle = compute_sma(values[start:stop], ctype)
            assert sma_bytes(sma) == sma_bytes(oracle)

    def test_nan_falls_back_to_oracle(self):
        values = [1.5, float("nan"), 2.5]
        prep = prepare(values, ColumnType.FLOAT64)
        assert compute_sma_arrays(prep.vector, prep.null_mask, ColumnType.FLOAT64) is None
        sma, reason = compute_sma_range(prep, 0, 3)
        assert reason is not None
        assert sma_bytes(sma) == sma_bytes(compute_sma(values, ColumnType.FLOAT64))

    def test_signed_zero_falls_back_to_oracle(self):
        # np.min([0.0, -0.0]) returns -0.0; the oracle's strict-< fold
        # keeps the first-seen 0.0.  Bytes must match, so -0.0 bails.
        values = [0.0, -0.0]
        prep = prepare(values, ColumnType.FLOAT64)
        assert compute_sma_arrays(prep.vector, prep.null_mask, ColumnType.FLOAT64) is None
        sma, _reason = compute_sma_range(prep, 0, 2)
        assert sma_bytes(sma) == sma_bytes(compute_sma(values, ColumnType.FLOAT64))

    def test_opposite_infinities_sum_to_nan_silently(self):
        values = [float("inf"), 2.0, float("-inf")]
        prep = prepare(values, ColumnType.FLOAT64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sma, reason = compute_sma_range(prep, 0, 3)
        assert reason is None
        assert sma_bytes(sma) == sma_bytes(compute_sma(values, ColumnType.FLOAT64))

    def test_int_sum_near_overflow(self):
        big = 2**62
        values = [big, big, -big, 17]
        prep = prepare(values, ColumnType.INT64)
        sma, reason = compute_sma_range(prep, 0, 4)
        assert reason is None
        oracle = compute_sma(values, ColumnType.INT64)
        assert sma_bytes(sma) == sma_bytes(oracle)
        assert sma.sum_value == big + 17

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.floats(
                    allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12
                ),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_float_sum_bit_exact(self, values):
        # Drop -0.0 (tested separately as a deliberate fallback) but
        # keep everything else, however awkwardly distributed.
        values = [
            None if v is None else (0.0 if v == 0.0 else float(v)) for v in values
        ]
        prep = prepare(values, ColumnType.FLOAT64, trusted=True)
        sma, _reason = compute_sma_range(prep, 0, len(values))
        assert sma_bytes(sma) == sma_bytes(compute_sma(values, ColumnType.FLOAT64))


# ---------------------------------------------------------------------------
# Whole-writer byte identity (the tentpole contract)

ALL_TYPES_SCHEMA = TableSchema(
    name="all_types",
    columns=(
        ColumnSpec("i", ColumnType.INT64, index=IndexType.BKD),
        ColumnSpec("ts", ColumnType.TIMESTAMP, index=IndexType.BKD),
        ColumnSpec("f", ColumnType.FLOAT64, index=IndexType.BKD),
        ColumnSpec("b", ColumnType.BOOL, index=IndexType.NONE),
        ColumnSpec("tag", ColumnType.STRING, index=IndexType.INVERTED),
        ColumnSpec("msg", ColumnType.STRING, index=IndexType.INVERTED, tokenize=True),
    ),
)

row_strategy = st.fixed_dictionaries(
    {
        # Bounded so the block *sum* stays in int64: the interpreted
        # encoder itself cannot serialize an overflowing SMA sum.
        "i": st.one_of(st.none(), st.integers(min_value=-(2**50), max_value=2**50)),
        "ts": st.integers(min_value=0, max_value=2**40),
        "f": st.one_of(
            st.none(),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        "b": st.one_of(st.none(), st.booleans()),
        "tag": st.one_of(st.none(), st.sampled_from(["a", "b", "c", "dd", "αβ"])),
        "msg": column_text,
    }
)


class TestWriterByteIdentity:
    def test_request_log_pack_identical(self):
        rows = make_rows(1000, seed=3)
        # Sprinkle nulls through every nullable column.
        for i, row in enumerate(rows):
            if i % 7 == 0:
                row["ip"] = None
            if i % 11 == 0:
                row["latency"] = None
            if i % 13 == 0:
                row["fail"] = None
        expected = oracle_pack(request_log_schema(), rows)
        writer = LogBlockWriter(request_log_schema(), codec="zlib", block_rows=64)
        writer.append_many(rows)
        got = writer.finish()
        assert unpack_members(got) == unpack_members(expected)
        assert got == expected
        # Every column was prepared — the high-cardinality "log" column's
        # PLAIN blocks included — so nothing went to the reference encoder.
        stats = writer.encode_stats
        assert stats.rows_vectorized == len(rows) * len(request_log_schema())
        assert stats.rows_interpreted == 0 and stats.fallbacks == {}

    def test_append_columns_identical(self):
        rows = make_rows(300, seed=5)
        expected = oracle_pack(request_log_schema(), rows)
        writer = LogBlockWriter(request_log_schema(), codec="zlib", block_rows=64)
        names = request_log_schema().column_names()
        writer.append_columns({n: [r.get(n) for r in rows] for n in names})
        assert writer.finish() == expected

    def test_append_columns_missing_column_is_null(self):
        rows = [{"tenant_id": 1, "ts": 100 + i, "api": "/a"} for i in range(20)]
        expected = oracle_pack(request_log_schema(), rows)
        writer = LogBlockWriter(request_log_schema(), codec="zlib", block_rows=64)
        writer.append_columns(
            {
                "tenant_id": [r["tenant_id"] for r in rows],
                "ts": [r["ts"] for r in rows],
                "api": [r["api"] for r in rows],
            }
        )
        assert writer.finish() == expected

    def test_append_columns_rejections(self):
        writer = LogBlockWriter(request_log_schema())
        with pytest.raises(SchemaError):
            writer.append_columns({})
        with pytest.raises(SchemaError):
            writer.append_columns({"nope": [1]})
        with pytest.raises(SchemaError, match="equal-length"):
            writer.append_columns({"ts": [1, 2], "latency": [3]})
        with pytest.raises(SchemaError, match="expects int"):
            writer.append_columns({"ts": [1], "latency": ["slow"]})

    def test_empty_block(self):
        vec = LogBlockWriter(request_log_schema(), codec="zlib")
        ref = LogBlockWriter(request_log_schema(), codec="zlib", vectorized=False)
        assert vec.finish() == ref.finish()
        assert vec.encode_stats.rows_vectorized == 0

    def test_single_row(self):
        rows = make_rows(1)
        writer = LogBlockWriter(request_log_schema(), codec="zlib", block_rows=64)
        writer.append_many(rows)
        assert writer.finish() == oracle_pack(request_log_schema(), rows)

    def test_unvalidated_writer_still_byte_identical(self):
        # validate_rows=False drops the schema gate, so the kernels run
        # untrusted: their own type gate rejects odd values (a float in
        # an INT64 column, which the oracle truncates via int()) and the
        # oracle path takes over — bytes stay canonical either way.
        rows = [{"i": 7.5, "ts": 5, "f": 1.5, "b": True, "tag": "a", "msg": "m"}]
        rows = rows * 20
        vec = LogBlockWriter(ALL_TYPES_SCHEMA, codec="none", validate_rows=False)
        vec.append_many(rows)
        ref = LogBlockWriter(
            ALL_TYPES_SCHEMA, codec="none", validate_rows=False, vectorized=False
        )
        ref.append_many(rows)
        assert vec.finish() == ref.finish()
        # np.int64 fails the untrusted int gate → whole column interpreted.
        assert any("non-int" in r for r in vec.encode_stats.fallbacks)

    def test_int_subclass_falls_back_to_the_reference(self):
        # A real EncodeFallback: the kernels' gate takes exact types
        # only, so the column goes — blocks, SMAs and BKD points — to
        # the per-value reference path, and only that column.
        class Level(int):
            pass

        rows = [
            {"i": Level(i % 5), "ts": i, "f": 0.5, "b": True, "tag": "a", "msg": "m"}
            for i in range(40)
        ]
        packs = []
        for vectorized in (True, False):
            writer = LogBlockWriter(
                ALL_TYPES_SCHEMA, codec="none", block_rows=16,
                validate_rows=False, vectorized=vectorized,
            )
            writer.append_many(rows)
            packs.append(writer.finish())
            if vectorized:
                stats = writer.encode_stats
        assert unpack_members(packs[0]) == unpack_members(packs[1])
        assert stats.rows_interpreted == len(rows)
        assert stats.rows_vectorized == len(rows) * (len(ALL_TYPES_SCHEMA) - 1)
        assert stats.fallbacks == {"i: non-int value": 3}  # one per block

    def test_vectorized_off_ablates_everything(self):
        writer = LogBlockWriter(request_log_schema(), vectorized=False)
        writer.append_many(make_rows(200))
        writer.finish()
        assert writer.encode_stats.rows_vectorized == 0
        assert writer.encode_stats.rows_interpreted > 0
        assert writer.encode_stats.fallbacks == {}

    @given(rows=st.lists(row_strategy, min_size=0, max_size=120))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_hypothesis_pack_identity(self, rows):
        expected = oracle_pack(ALL_TYPES_SCHEMA, rows, codec="none", block_rows=32)
        writer = LogBlockWriter(
            ALL_TYPES_SCHEMA, codec="none", block_rows=32, vectorized=True
        )
        writer.append_many(rows)
        assert writer.finish() == expected

    def test_int64_overflow_error_parity(self):
        rows = [{"i": 2**63, "ts": 1, "f": 0.5, "b": True, "tag": "t", "msg": None}]
        for vectorized in (True, False):
            writer = LogBlockWriter(ALL_TYPES_SCHEMA, vectorized=vectorized)
            writer.append_many(rows)
            with pytest.raises(OverflowError):
                writer.finish()


class TestEncodeStats:
    def test_merge(self):
        a = EncodeStats(rows_vectorized=5, rows_interpreted=1, fallbacks={"x": 1})
        b = EncodeStats(rows_vectorized=2, rows_interpreted=3, fallbacks={"x": 2, "y": 1})
        a.merge(b)
        assert a.rows_vectorized == 7 and a.rows_interpreted == 4
        assert a.fallbacks == {"x": 3, "y": 1}


# ---------------------------------------------------------------------------
# S1: bloom build — dedupe + add_many must not change a single bit


class TestBloomBytes:
    def test_add_many_equals_add_loop_with_duplicates(self):
        values = [f"v{i % 17}" for i in range(300)]
        distinct = {v for v in values}
        old = BloomFilter.for_items(len(distinct))
        for v in values:  # the old procedure hashed every duplicate
            old.add(v)
        new = BloomFilter.for_items(len(distinct))
        new.add_many(distinct)
        assert new.to_bytes() == old.to_bytes()

    def test_add_many_empty(self):
        bloom = BloomFilter.for_items(4)
        bloom.add_many([])
        assert bloom.fill_ratio() == 0.0

    @given(st.sets(st.text(min_size=1, max_size=8), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_order_independent(self, values):
        a = BloomFilter.for_items(len(values))
        a.add_many(sorted(values))
        b = BloomFilter.for_items(len(values))
        b.add_many(sorted(values, reverse=True))
        assert a.to_bytes() == b.to_bytes()
        assert all(a.might_contain(v) for v in values)


# ---------------------------------------------------------------------------
# S2: DICT string blocks scan as int compares on codes


def _dict_block(values):
    payload = encode_block(values, ColumnType.STRING)
    arrays = decode_block_arrays(payload, ColumnType.STRING, len(values))
    assert arrays is not None and len(arrays) == 3
    return arrays


DICT_VALUES = [None if i % 9 == 0 else f"key{i % 6}" for i in range(72)]

DICT_PREDICATES = [
    EqPredicate("c", "key3"),
    EqPredicate("c", "absent"),
    EqPredicate("c", 42),
    NePredicate("c", "key0"),
    NePredicate("c", "absent"),
    InPredicate("c", ("key1", "key5", "nope")),
    InPredicate("c", ("nope",)),
    RangePredicate("c", low="key1", high="key4"),
    RangePredicate("c", low="key1", high="key4", low_inclusive=False, high_inclusive=False),
    RangePredicate("c", low=None, high="key2"),
    RangePredicate("c", low="key4", high=None),
    PrefixPredicate("c", "key"),
    PrefixPredicate("c", "key5"),
    PrefixPredicate("c", "zzz"),
    NullPredicate("c"),
    NotNullPredicate("c"),
]


class TestDictCodesMask:
    @pytest.mark.parametrize("predicate", DICT_PREDICATES, ids=lambda p: repr(p))
    def test_matches_scalar_evaluation(self, predicate):
        codes, dictionary, nulls = _dict_block(DICT_VALUES)
        mask = dict_codes_block_mask(predicate, codes, dictionary, nulls)
        assert mask is not None
        expected = [matches(predicate, {"c": v}) for v in DICT_VALUES]
        assert list(mask) == expected
        assert list(column_mask(predicate, (codes, dictionary, nulls))) == expected

    def test_shapes_without_a_code_form_read_through_the_dictionary(self):
        block = _dict_block(DICT_VALUES)
        for predicate in (MatchPredicate("c", "KEY2"), MatchPredicate("c", "x")):
            assert dict_codes_block_mask(predicate, *block) is None
            expected = [matches(predicate, {"c": v}) for v in DICT_VALUES]
            assert list(column_mask(predicate, block)) == expected
        # Python will not order a str against an int: neither does the scan.
        assert dict_codes_block_mask(RangePredicate("c", low=1), *block) is None
        with pytest.raises(TypeError):
            column_mask(RangePredicate("c", low=1), block)

    def test_scan_counts_dict_string_rows_as_vectorized(self):
        rows = make_rows(256, seed=2)
        reader = reader_for(write_logblock(rows, block_rows=64))
        stats = PruneStats()
        mask = evaluate_predicates(
            reader,
            [EqPredicate("api", "/api/v1")],
            use_skipping=False,
            use_indexes=False,
            stats=stats,
        )
        expected = [i for i, r in enumerate(rows) if r["api"] == "/api/v1"]
        assert np.flatnonzero(mask).tolist() == expected
        # "api" is low-cardinality → every block DICT → all rows vectorized.
        assert stats.rows_vectorized == 256

    def test_scan_string_predicates_match_the_per_value_oracle(self):
        rows = make_rows(200, seed=7)
        reader = reader_for(write_logblock(rows, block_rows=32))
        predicates = [
            [EqPredicate("api", "/api/v2")],
            [InPredicate("api", ("/api/v0", "/api/v2"))],
            [PrefixPredicate("ip", "192.168.0.")],
            [RangePredicate("api", low="/api/v1", high="/api/v2")],
            [NePredicate("ip", "192.168.0.3")],
        ]
        for (predicate,) in predicates:
            oracle = [i for i, r in enumerate(rows) if matches(predicate, r)]
            mask = evaluate_predicates(reader, [predicate], use_indexes=False)
            assert np.flatnonzero(mask).tolist() == oracle

    def test_reader_materializes_dict_columns(self):
        rows = make_rows(150, seed=4)
        for i in range(0, 150, 10):
            rows[i]["api"] = None
        reader = reader_for(write_logblock(rows, block_rows=32))
        assert reader.read_column("api") == [r["api"] for r in rows]


# ---------------------------------------------------------------------------
# Builder / compactor: what they feed the writer


class TestBuilderEncode:
    def test_builder_and_compactor_outputs_equal_the_reference_encoder(self):
        """Every object the builder and the compactor leave behind is
        the reference encoder's bytes for the rows it holds."""
        from repro.builder.builder import DataBuilder
        from repro.builder.compaction import Compactor
        from repro.meta.catalog import Catalog
        from repro.meta.janitor import Janitor
        from repro.oss.store import InMemoryObjectStore
        from repro.rowstore.memtable import MemTable

        schema = request_log_schema()
        catalog = Catalog(schema)
        store = InMemoryObjectStore()
        store.create_bucket("v")

        def check_new_objects(seen: set) -> set:
            keys = {stat.key for stat in store.list("v")} - seen
            assert keys
            for key in keys:
                blob = store.get("v", key)
                reader = reader_for(blob)
                ref = LogBlockWriter(schema, codec="zlib", block_rows=64, vectorized=False)
                ref.append_columns({c: reader.read_column(c) for c in schema.column_names()})
                assert ref.finish() == blob, key
            return keys

        builder = DataBuilder(
            schema, catalog,
            Janitor(catalog, store, "v"), codec="zlib", block_rows=64,
        )
        for seed in range(3):
            table = MemTable()
            table.append_many(make_rows(400, tenant_id=1, seed=seed))
            table.seal()
            builder.archive_memtable(table, f"s0-{seed}")
        built = check_new_objects(set())
        Compactor(
            schema, catalog, Janitor(catalog, store, "v"), codec="zlib", block_rows=64,
            small_threshold_rows=500, target_rows=1_200,
        ).compact_tenant(1)
        check_new_objects(built)

    def test_encode_mode_counters(self):
        from repro.builder.builder import DataBuilder
        from repro.meta.catalog import Catalog
        from repro.meta.janitor import Janitor
        from repro.obs.context import Observability
        from repro.obs.report import ENCODE_ROWS
        from repro.oss.store import InMemoryObjectStore
        from repro.rowstore.memtable import MemTable

        catalog = Catalog(request_log_schema())
        store = InMemoryObjectStore()
        store.create_bucket("v")
        obs = Observability(tracing_enabled=False)
        builder = DataBuilder(
            request_log_schema(), catalog,
            Janitor(catalog, store, "v"), codec="zlib", block_rows=64, obs=obs
        )
        table = MemTable()
        table.append_many(make_rows(300, tenant_id=1))
        table.seal()
        builder.archive_memtable(table, "s0-0")
        # Both labels exist; every cell of a validated request_log row
        # (the PLAIN "log" blocks too) lands under "vectorized".
        modes = obs.registry.snapshot().by_label(ENCODE_ROWS, "mode")
        assert modes == {"vectorized": 300 * len(request_log_schema()), "interpreted": 0}
