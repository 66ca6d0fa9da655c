"""Column-block encoder tests."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.strings import Strings
from repro.logblock.column import (
    block_values,
    decode_block,
    decode_block_arrays,
    encode_block,
    int_frame,
)
from repro.logblock.encode_kernels import encode_block_range, prepare_column
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


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


class TestIntFrames:
    """v7 INT64 / TIMESTAMP blocks: delta when the block never
    decreases, FOR otherwise, offsets at the narrowest width."""

    @pytest.mark.parametrize(
        "values, frame, width",
        [
            ([1_600_000_000_000_000 + 3 * i for i in range(50)], "delta", 1),
            ([5, 5, 5, 5], "delta", 0),
            ([7], "delta", 0),
            ([9, 9, None, 9], "for", 1),  # the null's placeholder 0 breaks the order
            ([None, 1, 2, 3], "delta", 1),  # ... unless it sorts first
            ([300, 10, 200], "for", 2),
            ([3, 3, 3, None, None], "for", 1),
            ([INT64_MIN, INT64_MAX], "delta", 8),  # a span of 2**64 - 1
            ([INT64_MAX, INT64_MIN, 0], "for", 8),
            ([INT64_MAX] * 3, "delta", 0),
            ([INT64_MIN, INT64_MIN + 1, INT64_MAX, None], "for", 8),
            ([], "for", 0),
        ],
    )
    def test_frames_round_trip(self, values, frame, width):
        for ctype in (ColumnType.INT64, ColumnType.TIMESTAMP):
            data = encode_block(values, ctype)
            assert int_frame(data) == (frame, width)
            assert decode_block(data, ctype, len(values)) == values
            vector, null_mask = decode_block_arrays(data, ctype, len(values))
            assert vector.dtype == np.int64 and not vector.flags.writeable
            assert block_values((vector, null_mask)) == values

    def test_the_frame_shrinks_a_timestamp_block(self):
        ts = [1_600_000_000_000_000 + 1_000 * i for i in range(1000)]
        assert len(encode_block(ts, ColumnType.TIMESTAMP)) < 2_200  # raw: 8 000

    @given(
        st.lists(st.one_of(st.none(), st.integers(INT64_MIN, INT64_MAX), st.integers(-9, 9))),
        st.sampled_from(["as drawn", "sorted", "constant"]),
    )
    def test_the_vectorized_encoder_writes_the_reference_bytes(self, values, order):
        if order == "sorted":
            values = sorted(v for v in values if v is not None)
        elif order == "constant":
            values = values[:1] * len(values)
        data = encode_block(values, ColumnType.INT64)
        prep = prepare_column(np.array(values, dtype=object), ColumnType.INT64)
        assert encode_block_range(prep, 0, len(values)) == data
        assert decode_block(data, ColumnType.INT64, len(values)) == values


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
            encoded, ColumnType.STRING, len(values))
        assert codes.dtype == np.uint16 and len(dictionary) == 300  # the narrowest that holds 301
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


# Values that exercise every length-prefix width and the placeholders:
# nulls, "", multi-byte UTF-8, two-byte (>= 128 B) and three-byte
# (>= 16 384 B) varint lengths.
plain_values = st.lists(
    st.one_of(
        st.none(),
        st.just(""),
        st.text(max_size=12),
        st.sampled_from(["日志存储", "héllo wörld", "🙂" * 40, "x" * 127, "y" * 128, "z" * 16_384]),
    ),
    min_size=1,
    max_size=24,
    # A block that repeats values turns DICT; keep the present ones distinct.
    unique_by=lambda v: object() if v is None else v,
)


def plain_strings(payload, row_count):
    """The decoded form of a string block (a PLAIN one: ``Strings``)."""
    return decode_block_arrays(payload, ColumnType.STRING, row_count)


class TestSelectivePlainDecode:
    """``Strings.pick`` ≡ picking from the ``decode_block`` oracle."""

    @staticmethod
    def encode_plain(values):
        data = encode_block(values, ColumnType.STRING)
        assert isinstance(plain_strings(data, len(values)), Strings)
        return data

    @given(plain_values, st.data())
    def test_pick_equals_oracle_picks(self, values, data):
        payload = self.encode_plain(values)
        oracle = decode_block(payload, ColumnType.STRING, len(values))
        assert oracle == values
        strings = plain_strings(payload, len(values))
        everything = np.arange(len(values))
        # Several selections against one view.
        for _ in range(3):
            chosen = data.draw(st.sets(st.sampled_from(range(len(values)))))
            offsets = np.array(sorted(chosen), dtype=np.int64)
            assert strings.pick(offsets) == [oracle[i] for i in sorted(chosen)]
        assert strings.pick(everything[:0]) == []
        assert strings.pick(everything) == oracle
        assert plain_strings(payload, len(values)).pick(everything) == oracle

    @given(plain_values, st.data())
    def test_every_truncation_raises_when_the_block_is_opened(self, values, data):
        """The length section must add up to the text: a cut anywhere
        fails the open, before any row is picked."""
        payload = self.encode_plain(values)
        cuts = range(len(payload)) if len(payload) < 400 else data.draw(
            st.lists(st.integers(0, len(payload) - 1), min_size=1, max_size=30)
        )
        for cut in cuts:
            with pytest.raises(SerializationError):
                plain_strings(payload[:cut], len(values))
            with pytest.raises(SerializationError):
                decode_block(payload[:cut], ColumnType.STRING, len(values))

    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_length_section_that_disagrees_with_its_text_raises(self, change):
        payload = bytearray(self.encode_plain(["alpha", "beta"]))
        lengths_at = 2 + payload[0]  # past the null bitset and the encoding byte
        assert payload[lengths_at : lengths_at + 2] == bytes((5, 4))
        payload[lengths_at + 1] += change
        with pytest.raises(SerializationError, match="disagree|overrun"):
            plain_strings(bytes(payload), 2)

    def test_full_selection_of_a_truncated_block_raises_at_every_cut(self):
        values = ["a", None, "", "日志", "x" * 200, "tail"]
        payload = self.encode_plain(values)
        everything = np.arange(len(values))
        for cut in range(len(payload)):
            with pytest.raises(SerializationError):
                plain_strings(payload[:cut], len(values)).pick(everything)

    def test_a_failed_pick_does_not_poison_the_next(self):
        values = [f"value-{i}-xxx" for i in range(10)]
        payload = self.encode_plain(values).replace(b"value-9", b"\xffalue-9")
        strings = plain_strings(payload, len(values))
        with pytest.raises(SerializationError):
            strings.pick(np.array([9]))
        with pytest.raises(SerializationError):
            strings.pick(np.array([3, 9]))
        # The other rows are still served, and served whole.
        assert strings.pick(np.array([3, 8])) == [values[3], values[8]]
        with pytest.raises(SerializationError):
            strings.pick(np.arange(len(values)))

    def test_text_that_is_not_utf8_raises_when_picked(self):
        payload = self.encode_plain(["alpha", "\u00e9t\u00e9"]).replace("é".encode(), b"\xff\xfe")
        strings = plain_strings(payload, 2)
        assert strings.pick(np.array([0])) == ["alpha"]
        with pytest.raises(SerializationError):
            strings.pick(np.array([1]))

    def test_rows_outside_the_block_are_rejected(self):
        strings = plain_strings(self.encode_plain(["a", "b"]), 2)
        with pytest.raises(IndexError):
            strings.pick(np.array([1, 2]))
        with pytest.raises(IndexError):
            strings.pick(np.array([-1, 0]))

    def test_an_unknown_string_encoding_is_refused(self):
        payload = bytearray(self.encode_plain(["alpha", "beta"]))
        payload[1 + payload[0]] = 7  # the encoding byte, past the null bitset
        with pytest.raises(SerializationError):
            plain_strings(bytes(payload), 2)


class TestDecodedBlocksAreSafeToShare:
    """One decoded block is handed to every query that reads it."""

    BLOCKS = [
        (ColumnType.INT64, [1, None, 3]),
        (ColumnType.TIMESTAMP, [1_605_052_800_000_000, None]),
        (ColumnType.FLOAT64, [1.5, None]),
        (ColumnType.BOOL, [True, None, False]),
        (ColumnType.STRING, ["alpha", "beta", None, "alpha"] * 8),  # DICT, one-byte codes
        (ColumnType.STRING, ([f"v{i:03d}" for i in range(300)] + [None]) * 3),  # DICT, wide codes
    ]

    @pytest.mark.parametrize("ctype, values", BLOCKS)
    def test_writing_into_a_decoded_array_raises(self, ctype, values):
        block = decode_block_arrays(encode_block(values, ctype), ctype, len(values))
        arrays = [part for part in block if isinstance(part, np.ndarray)]
        assert len(arrays) == 2
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[-1]
        if len(block) == 3:
            assert isinstance(block[1], tuple)  # the dictionary
        assert block_values(block) == values == roundtrip(values, ctype)

    def test_a_plain_block_exposes_no_writable_buffer(self):
        values = [f"line {i}" for i in range(40)]
        payload = encode_block(values, ColumnType.STRING)
        strings = decode_block_arrays(payload, ColumnType.STRING, 40)
        assert isinstance(strings, Strings) and len(strings) == 40
        for array in (strings.nulls, strings.bounds):
            assert not array.flags.writeable
        assert block_values(strings) == values

    @given(plain_values, st.data())
    def test_interleaved_readers_of_one_plain_view(self, values, data):
        """A short pick, a longer one by another reader, the first again:
        each equals what a fresh decode of the block returns."""
        payload = encode_block(values, ColumnType.STRING)
        shared = decode_block_arrays(payload, ColumnType.STRING, len(values))
        assert isinstance(shared, Strings)
        cut = data.draw(st.integers(1, len(values)))
        short = np.arange(cut)[:: data.draw(st.integers(1, 3))]
        longer = np.arange(len(values))[data.draw(st.integers(0, 2)) :: 2]

        def fresh(offsets):
            block = decode_block_arrays(payload, ColumnType.STRING, len(values))
            return block.pick(offsets)

        first = shared.pick(short)
        assert first == fresh(short) == [values[i] for i in short]
        assert shared.pick(longer) == fresh(longer) == [values[i] for i in longer]
        assert shared.pick(short) == first
        assert block_values(shared) == values


    def test_threads_sharing_one_plain_view(self):
        """More readers than cores extend one view's walk at once; every
        pick still equals the picks from the values."""
        values = [None if i % 17 == 0 else f"row {i} " + "x" * (i % 150) for i in range(600)]
        payload = encode_block(values, ColumnType.STRING)
        shared = decode_block_arrays(payload, ColumnType.STRING, 600)
        assert isinstance(shared, Strings)
        wrong: list = []

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(40):
                offsets = np.array(sorted(rng.sample(range(600), rng.randint(1, 30))))
                if shared.pick(offsets) != [values[i] for i in offsets]:
                    wrong.append(offsets)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert block_values(shared) == values


class TestNumericDecodeOracle:
    """``decode_block`` hands back python scalars, nulls patched in."""

    @pytest.mark.parametrize(
        "ctype, values",
        [
            (ColumnType.INT64, [None, -(2**63), 2**63 - 1, 0, None]),
            (ColumnType.TIMESTAMP, [1_605_052_800_000_000, None]),
            (ColumnType.FLOAT64, [None, -0.0, 1e308, float("inf"), None]),
            (ColumnType.BOOL, [True, None, False, None, True, True, False, False, True]),
        ],
    )
    def test_types_and_nulls(self, ctype, values):
        decoded = roundtrip(values, ctype)
        assert decoded == values
        assert [type(v) for v in decoded] == [type(v) for v in values]

    def test_float_nan_and_signed_zero_survive(self):
        decoded = roundtrip([float("nan"), -0.0], ColumnType.FLOAT64)
        assert decoded[0] != decoded[0]
        assert str(decoded[1]) == "-0.0"

    def test_short_bool_value_bitset_raises(self):
        eight = encode_block([True] * 8, ColumnType.BOOL)
        nine = encode_block([True] * 9, ColumnType.BOOL)
        # nine rows' null bitset followed by eight rows' value bitset
        spliced = nine[: len(nine) - 7] + eight[len(eight) - 6 :]
        with pytest.raises(SerializationError):
            decode_block(spliced, ColumnType.BOOL, 9)


class TestErrors:
    def test_row_count_mismatch(self):
        encoded = encode_block([1, 2, 3], ColumnType.INT64)
        with pytest.raises(SerializationError):
            decode_block(encoded, ColumnType.INT64, 5)

    def test_empty_block(self):
        assert roundtrip([], ColumnType.INT64) == []
        assert roundtrip([], ColumnType.STRING) == []
