"""Bitset unit and property tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitset import Bitset
from repro.common.errors import SerializationError


class TestConstruction:
    def test_empty(self):
        bits = Bitset(0)
        assert len(bits) == 0
        assert bits.count() == 0
        assert not bits.any()

    def test_from_indices(self):
        bits = Bitset.from_indices(10, [0, 3, 9])
        assert bits.count() == 3
        assert bits.get(0) and bits.get(3) and bits.get(9)
        assert not bits.get(1)

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            Bitset.from_indices(5, [5])

    def test_full(self):
        bits = Bitset.full(13)
        assert bits.count() == 13

    def test_full_masks_tail(self):
        bits = Bitset.full(13)
        assert list(bits) == list(range(13))

    def test_from_bool_array(self):
        mask = np.array([True, False, True, True])
        bits = Bitset.from_bool_array(mask)
        assert list(bits) == [0, 2, 3]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitset(-1)


class TestMutation:
    def test_set_clear(self):
        bits = Bitset(8)
        bits.set(5)
        assert bits.get(5)
        bits.clear(5)
        assert not bits.get(5)

    def test_bounds(self):
        bits = Bitset(8)
        with pytest.raises(IndexError):
            bits.set(8)
        with pytest.raises(IndexError):
            bits.get(-1)


class TestAlgebra:
    def test_and_or_xor(self):
        a = Bitset.from_indices(10, [1, 2, 3])
        b = Bitset.from_indices(10, [2, 3, 4])
        assert list(a & b) == [2, 3]
        assert list(a | b) == [1, 2, 3, 4]
        assert list(a ^ b) == [1, 4]

    def test_invert_respects_size(self):
        a = Bitset.from_indices(10, [0, 9])
        inverted = ~a
        assert inverted.count() == 8
        assert not inverted.get(0)
        assert not inverted.get(9)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Bitset(4) & Bitset(5)

    def test_equality(self):
        assert Bitset.from_indices(6, [1, 2]) == Bitset.from_indices(6, [1, 2])
        assert Bitset.from_indices(6, [1]) != Bitset.from_indices(6, [2])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Bitset(4))


class TestSerialization:
    def test_roundtrip_small(self):
        bits = Bitset.from_indices(20, [0, 7, 8, 19])
        assert Bitset.from_bytes(bits.to_bytes()) == bits

    def test_bad_length(self):
        bits = Bitset.from_indices(20, [1])
        with pytest.raises(SerializationError):
            Bitset.from_bytes(bits.to_bytes() + b"x")

    def test_short_header(self):
        with pytest.raises(SerializationError):
            Bitset.from_bytes(b"\x01")


indices_strategy = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n),
    )
)


class TestFromIndicesArrays:
    """Row-id sets arrive as numpy arrays from the indexes; an array and
    any other iterable of the same ids must build the same bitset."""

    @given(
        st.integers(min_value=1, max_value=200).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n)
            )
        )
    )
    def test_array_equals_iterable_with_duplicates_in_any_order(self, spec):
        size, indices = spec
        expected = Bitset(size)
        for index in indices:
            expected.set(index)
        as_array = Bitset.from_indices(size, np.array(indices, dtype=np.int64))
        assert as_array == expected
        assert Bitset.from_indices(size, indices) == expected
        assert Bitset.from_indices(size, iter(indices)) == expected
        assert Bitset.from_indices(size, set(indices)) == expected
        assert as_array.count() == len(set(indices))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    def test_integer_dtypes(self, dtype):
        bits = Bitset.from_indices(70, np.array([69, 0, 64], dtype=dtype))
        assert list(bits) == [0, 64, 69]

    def test_array_is_not_modified_or_aliased(self):
        indices = np.array([3, 1], dtype=np.int64)
        bits = Bitset.from_indices(8, indices)
        indices[0] = 7
        assert list(bits) == [1, 3]

    def test_empty(self):
        assert not Bitset.from_indices(9, np.empty(0, dtype=np.int64)).any()
        assert not Bitset.from_indices(9, []).any()
        assert len(Bitset.from_indices(0, [])) == 0

    @pytest.mark.parametrize("bad", [[5], [-1], [0, 2, 99]])
    def test_out_of_range_raises_index_error(self, bad):
        with pytest.raises(IndexError):
            Bitset.from_indices(5, np.array(bad, dtype=np.int64))
        with pytest.raises(IndexError):
            Bitset.from_indices(5, bad)


class TestProperties:
    @given(indices_strategy)
    def test_indices_roundtrip(self, size_and_indices):
        size, indices = size_and_indices
        bits = Bitset.from_indices(size, indices)
        assert sorted(indices) == list(bits.indices())
        assert bits.count() == len(indices)

    @given(indices_strategy)
    def test_serialization_roundtrip(self, size_and_indices):
        size, indices = size_and_indices
        bits = Bitset.from_indices(size, indices)
        assert Bitset.from_bytes(bits.to_bytes()) == bits

    @given(indices_strategy, indices_strategy)
    def test_de_morgan(self, a_spec, b_spec):
        size = max(a_spec[0], b_spec[0])
        a = Bitset.from_indices(size, [i for i in a_spec[1] if i < size])
        b = Bitset.from_indices(size, [i for i in b_spec[1] if i < size])
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)

    @given(indices_strategy)
    def test_double_negation(self, spec):
        size, indices = spec
        bits = Bitset.from_indices(size, indices)
        assert ~~bits == bits

    @given(indices_strategy)
    def test_bool_array_roundtrip(self, spec):
        size, indices = spec
        bits = Bitset.from_indices(size, indices)
        assert Bitset.from_bool_array(bits.to_bool_array()) == bits
