"""Codec registry tests."""

import lzma

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec import Codec, available_codecs, get_codec, register_codec
from repro.common.errors import CodecError


class TestRegistry:
    def test_builtins_present(self):
        assert {"none", "zlib", "lzma", "bz2"} <= set(available_codecs())

    def test_lookup_by_name_and_id(self):
        by_name = get_codec("zlib")
        by_id = get_codec(by_name.codec_id)
        assert by_name is by_id

    def test_unknown_raises(self):
        with pytest.raises(CodecError):
            get_codec("snappy-ng")
        with pytest.raises(CodecError):
            get_codec(250)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CodecError):
            register_codec(Codec("zlib", 99, lambda d: d, lambda d: d))
        with pytest.raises(CodecError):
            register_codec(Codec("fresh-name", 1, lambda d: d, lambda d: d))


class TestRoundtrips:
    @pytest.mark.parametrize("name", ["none", "zlib", "lzma", "bz2"])
    def test_empty(self, name):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(b"")) == b""

    @pytest.mark.parametrize("name", ["none", "zlib", "lzma", "bz2"])
    @given(data=st.binary(max_size=2000))
    def test_roundtrip(self, name, data):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data

    def test_lzma_reads_the_xz_members_written_before_the_lzma_container(self):
        assert get_codec("lzma").decompress(lzma.compress(b"abc" * 99)) == b"abc" * 99

    def test_compressible_data_shrinks(self):
        data = b"abcd" * 1000
        for name in ("zlib", "lzma", "bz2"):
            assert len(get_codec(name).compress(data)) < len(data)

    def test_ratio_none_is_one(self):
        assert get_codec("none").roundtrip_ratio(b"xyz" * 100) == 1.0

    def test_high_ratio_codec_beats_fast_codec_on_text(self):
        # The reason the paper defaults to ZSTD: ratio over CPU.
        data = ("GET /api/v1/t42/op1 rid_123 took 37ms status ok\n" * 500).encode()
        assert get_codec("lzma").roundtrip_ratio(data) >= get_codec("zlib").roundtrip_ratio(data)
