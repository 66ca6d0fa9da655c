"""Varint and zigzag encoding tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.varint import (
    decode_svarint,
    decode_uvarint,
    decode_uvarint_array,
    encode_svarint,
    encode_uvarint,
    encode_uvarint_array,
    zigzag_decode,
    zigzag_encode,
)


class TestUvarint:
    def test_zero(self):
        assert encode_uvarint(0) == b"\x00"
        assert decode_uvarint(b"\x00") == (0, 1)

    def test_single_byte_boundary(self):
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_known_value(self):
        # 300 = 0b100101100 → LEB128 [0xAC, 0x02]
        assert encode_uvarint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_raises(self):
        data = encode_uvarint(1 << 40)
        with pytest.raises(SerializationError):
            decode_uvarint(data[:-1])

    def test_overlong_raises(self):
        with pytest.raises(SerializationError):
            decode_uvarint(b"\x80" * 11)

    def test_offset_decoding(self):
        data = b"junk" + encode_uvarint(42)
        value, pos = decode_uvarint(data, offset=4)
        assert value == 42
        assert pos == len(data)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        decoded, pos = decode_uvarint(encoded)
        assert decoded == value
        assert pos == len(encoded)


class TestZigzag:
    @pytest.mark.parametrize(
        "value,expected", [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)]
    )
    def test_known_mapping(self, value, expected):
        assert zigzag_encode(value) == expected

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value


class TestSvarint:
    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip(self, value):
        decoded, _pos = decode_svarint(encode_svarint(value))
        assert decoded == value

    def test_small_negatives_are_small(self):
        assert len(encode_svarint(-1)) == 1
        assert len(encode_svarint(-64)) == 1


UVARINT_EDGES = [
    [],
    [0],
    [0x7F],
    [0x80],
    [0, 1, 127, 128, 255, 300, 16_383, 16_384],
    [2**63, 2**63 - 1, 2**64 - 1, 0, 1],
    list(range(1000)),
]
uint64_lists = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=300),  # mostly one- and two-byte values
    ),
    max_size=200,
)


class TestUvarintArray:
    """The array kernels equal a loop of the scalar codec, both ways."""

    @staticmethod
    def scalar_encode(values) -> bytes:
        return b"".join(encode_uvarint(value) for value in values)

    @staticmethod
    def scalar_decode(data: bytes, count: int, offset: int = 0) -> tuple[list[int], int]:
        values = []
        for _ in range(count):
            value, offset = decode_uvarint(data, offset)
            values.append(value)
        return values, offset

    @pytest.mark.parametrize("values", UVARINT_EDGES)
    def test_edges(self, values):
        encoded = encode_uvarint_array(np.array(values, dtype=np.uint64))
        assert encoded == self.scalar_encode(values)
        decoded, end = decode_uvarint_array(encoded, len(values))
        assert decoded.dtype == np.uint64
        assert (decoded.tolist(), end) == (values, len(encoded))

    @given(uint64_lists)
    def test_encode_equals_scalar(self, values):
        assert encode_uvarint_array(np.array(values, dtype=np.uint64)) == self.scalar_encode(
            values
        )

    @given(uint64_lists, st.binary(max_size=4), st.binary(max_size=4))
    def test_decode_equals_scalar_inside_a_buffer(self, values, before, after):
        data = before + self.scalar_encode(values) + after
        decoded, end = decode_uvarint_array(data, len(values), offset=len(before))
        assert (decoded.tolist(), end) == self.scalar_decode(data, len(values), len(before))

    def test_decode_stops_after_count(self):
        data = self.scalar_encode([5, 300, 7, 9])
        decoded, end = decode_uvarint_array(data, 2)
        assert (decoded.tolist(), end) == ([5, 300], 3)

    @given(uint64_lists.filter(bool), st.data())
    def test_truncated_input_raises(self, values, data):
        encoded = self.scalar_encode(values)
        # Cut anywhere from "nothing left" to "last varint lost its end".
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        kept = sum(1 for byte in encoded[:cut] if byte < 0x80)
        assert kept < len(values)
        with pytest.raises(SerializationError):
            decode_uvarint_array(encoded[:cut], len(values))

    def test_overlong_and_oversized_varints_raise(self):
        with pytest.raises(SerializationError):
            decode_uvarint_array(b"\x80" * 10 + b"\x01", 1)  # 11 bytes
        with pytest.raises(SerializationError):
            decode_uvarint_array(b"\x05" + b"\xff" * 9 + b"\x02", 2)  # bit 64 set
