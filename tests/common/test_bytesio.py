"""BinaryWriter/BinaryReader tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bytesio import BinaryReader, BinaryWriter
from repro.common.errors import SerializationError


class TestRoundtrips:
    def test_mixed_sequence(self):
        writer = BinaryWriter()
        writer.write_u8(7)
        writer.write_u16(300)
        writer.write_u32(70_000)
        writer.write_u64(1 << 40)
        writer.write_uvarint(999)
        writer.write_str("héllo")
        writer.write_len_prefixed(b"\x00\x01")
        reader = BinaryReader(writer.getvalue())
        assert reader.read_u8() == 7
        assert reader.read_u16() == 300
        assert reader.read_u32() == 70_000
        assert reader.read_u64() == 1 << 40
        assert reader.read_uvarint() == 999
        assert reader.read_str() == "héllo"
        assert reader.read_len_prefixed() == b"\x00\x01"
        assert reader.remaining() == 0

    @given(st.text(max_size=200))
    def test_str_roundtrip(self, text):
        writer = BinaryWriter()
        writer.write_str(text)
        assert BinaryReader(writer.getvalue()).read_str() == text

    @given(st.binary(max_size=200))
    def test_len_prefixed_roundtrip(self, data):
        writer = BinaryWriter()
        writer.write_len_prefixed(data)
        assert BinaryReader(writer.getvalue()).read_len_prefixed() == data


class TestBounds:
    def test_overrun_raises(self):
        reader = BinaryReader(b"ab")
        with pytest.raises(SerializationError):
            reader.read_bytes(3)

    def test_negative_read_raises(self):
        with pytest.raises(SerializationError):
            BinaryReader(b"ab").read_bytes(-1)

    def test_seek(self):
        reader = BinaryReader(b"abcdef")
        reader.seek(3)
        assert reader.read_bytes(3) == b"def"

    def test_seek_out_of_bounds(self):
        with pytest.raises(SerializationError):
            BinaryReader(b"ab").seek(5)

    def test_offset_tracking(self):
        writer = BinaryWriter()
        assert writer.offset == 0
        writer.write_u32(1)
        assert writer.offset == 4
        assert len(writer) == 4
