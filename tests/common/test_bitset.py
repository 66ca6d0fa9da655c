"""The null-bitset codec: bool vector ↔ stored bytes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitset import Bitset
from repro.common.errors import SerializationError

masks = st.lists(st.booleans(), max_size=200).map(lambda bits: np.array(bits, dtype=bool))


class TestConstruction:
    def test_empty(self):
        bits = Bitset(0)
        assert len(bits) == 0
        assert bits.to_bool_array().size == 0
        assert Bitset.from_bytes(bits.to_bytes()).to_bool_array().size == 0

    def test_from_bool_array(self):
        mask = np.array([True, False, True, True])
        bits = Bitset.from_bool_array(mask)
        assert len(bits) == 4
        assert bits.to_bool_array().tolist() == [True, False, True, True]

    def test_a_new_bitset_has_no_bit_set(self):
        assert not Bitset(13).to_bool_array().any()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitset(-1)


class TestSerialization:
    def test_layout_is_the_size_then_the_bits_lsb_first(self):
        bits = Bitset.from_bool_array(np.array([True, False, False, True] + [False] * 5 + [True]))
        assert bits.to_bytes() == (10).to_bytes(4, "little") + bytes([0b1001, 0b10])

    def test_roundtrip_small(self):
        mask = np.zeros(20, dtype=bool)
        mask[[0, 7, 8, 19]] = True
        decoded = Bitset.from_bytes(Bitset.from_bool_array(mask).to_bytes())
        assert np.array_equal(decoded.to_bool_array(), mask)

    def test_bad_length(self):
        data = Bitset.from_bool_array(np.ones(20, dtype=bool)).to_bytes()
        with pytest.raises(SerializationError):
            Bitset.from_bytes(data + b"x")

    def test_short_header(self):
        with pytest.raises(SerializationError):
            Bitset.from_bytes(b"\x01")


class TestProperties:
    @given(masks)
    def test_bool_array_roundtrip(self, mask):
        bits = Bitset.from_bool_array(mask)
        assert len(bits) == len(mask)
        assert np.array_equal(bits.to_bool_array(), mask)

    @given(masks)
    def test_serialization_roundtrip(self, mask):
        data = Bitset.from_bool_array(mask).to_bytes()
        assert len(data) == 4 + (len(mask) + 7) // 8
        assert np.array_equal(Bitset.from_bytes(data).to_bool_array(), mask)
