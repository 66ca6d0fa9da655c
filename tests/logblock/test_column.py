"""Column-block encoder tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.logblock.column import decode_block, decode_block_arrays, encode_block
from repro.logblock.schema import ColumnType


def roundtrip(values, ctype):
    return decode_block(encode_block(values, ctype), ctype, len(values))


class TestIntColumns:
    def test_roundtrip(self):
        values = [1, -5, None, 0, 2**40]
        assert roundtrip(values, ColumnType.INT64) == values

    def test_timestamp(self):
        values = [1_600_000_000_000_000, None]
        assert roundtrip(values, ColumnType.TIMESTAMP) == values

    @given(st.lists(st.one_of(st.none(), st.integers(min_value=-(2**62), max_value=2**62))))
    def test_property(self, values):
        assert roundtrip(values, ColumnType.INT64) == values


class TestFloatColumns:
    def test_roundtrip(self):
        values = [1.5, None, -0.25]
        assert roundtrip(values, ColumnType.FLOAT64) == values

    @given(
        st.lists(
            st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))
        )
    )
    def test_property(self, values):
        assert roundtrip(values, ColumnType.FLOAT64) == values


class TestBoolColumns:
    def test_roundtrip(self):
        values = [True, False, None, True]
        assert roundtrip(values, ColumnType.BOOL) == values

    @given(st.lists(st.one_of(st.none(), st.booleans())))
    def test_property(self, values):
        assert roundtrip(values, ColumnType.BOOL) == values


class TestStringColumns:
    def test_plain_roundtrip(self):
        values = [f"unique-{i}" for i in range(5)] + [None]
        assert roundtrip(values, ColumnType.STRING) == values

    def test_dictionary_roundtrip(self):
        # Low cardinality + enough rows → dictionary encoding kicks in.
        values = (["alpha", "beta", None] * 20)[:50]
        encoded = encode_block(values, ColumnType.STRING)
        assert decode_block(encoded, ColumnType.STRING, len(values)) == values

    def test_dictionary_smaller_for_low_cardinality(self):
        repetitive = ["the-same-long-api-endpoint-name"] * 100
        distinct = [f"value-number-{i:050d}" for i in range(100)]
        assert len(encode_block(repetitive, ColumnType.STRING)) < len(
            encode_block(distinct, ColumnType.STRING)
        )

    def test_wide_dictionary_roundtrip(self):
        """More than 127 entries: codes become multi-byte varints."""
        values = ([f"v{i:03d}" for i in range(300)] + [None]) * 3
        encoded = encode_block(values, ColumnType.STRING)
        assert decode_block(encoded, ColumnType.STRING, len(values)) == values
        codes, dictionary, null_mask = decode_block_arrays(
            encoded, ColumnType.STRING, len(values)
        )
        assert codes.dtype.kind == "i" and len(dictionary) == 300
        assert [None if c == 0 else dictionary[c - 1] for c in codes.tolist()] == values
        assert null_mask.tolist() == [v is None for v in values]

    def test_truncated_code_stream_raises(self):
        values = [f"v{i:03d}" for i in range(300)] * 2
        encoded = encode_block(values, ColumnType.STRING)
        for decode in (decode_block, decode_block_arrays):
            with pytest.raises(SerializationError):
                decode(encoded[:-1], ColumnType.STRING, len(values))

    def test_empty_string_vs_null(self):
        values = ["", None, "x"]
        assert roundtrip(values, ColumnType.STRING) == values

    def test_unicode(self):
        values = ["héllo wörld", "日志存储", None]
        assert roundtrip(values, ColumnType.STRING) == values

    @given(st.lists(st.one_of(st.none(), st.text(max_size=40))))
    def test_property(self, values):
        assert roundtrip(values, ColumnType.STRING) == values


class TestErrors:
    def test_row_count_mismatch(self):
        encoded = encode_block([1, 2, 3], ColumnType.INT64)
        with pytest.raises(SerializationError):
            decode_block(encoded, ColumnType.INT64, 5)

    def test_empty_block(self):
        assert roundtrip([], ColumnType.INT64) == []
        assert roundtrip([], ColumnType.STRING) == []
