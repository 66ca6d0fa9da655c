"""Tar-with-manifest packaging tests."""

import zlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import CorruptionError, SerializationError
from repro.oss.store import InMemoryObjectStore
from repro.tarpack.manifest import Manifest, read_preamble, write_preamble
from repro.tarpack.packer import PackBuilder, pack_members
from repro.tarpack.reader import BytesRangeReader, PackReader

V7_FIXTURE = Path(__file__).parent.parent / "fixtures" / "logblock_v7_golden.lgb"


def reopen(manifest: Manifest) -> Manifest:
    """``manifest`` written and read back as a pack stores it."""
    data = manifest.to_bytes()
    return Manifest.from_bytes(data, write_preamble(len(data)))


class TestManifest:
    def test_roundtrip(self):
        manifest = Manifest.of(["meta", "idx/ip", "é/0"], [10, 250, 0], [1, 2, 0])
        decoded = reopen(manifest)
        assert decoded.names() == ["meta", "idx/ip", "é/0"]
        assert decoded.extent("idx/ip") == (10, 250)
        assert decoded.extent("é/0") == (260, 0)
        assert decoded.version == 3 and decoded.data_length == 260
        assert decoded.crcs.tolist() == [1, 2, 0]

    def test_v3_is_names_then_lengths_then_crcs(self):
        """Past the 13-byte frame: the count, the name lengths, the
        names' text, the member lengths, each member's CRC-32."""
        body = Manifest.of(["meta", "col/0/0"], [10, 300], [7, 1 << 31]).to_bytes()[13:]
        assert body == (
            bytes((2, 4, 7)) + b"metacol/0/0" + bytes((10, 0xAC, 0x02))
            + (7).to_bytes(4, "little") + (1 << 31).to_bytes(4, "little")
        )

    def test_the_manifest_crc_covers_the_preamble(self):
        data = Manifest.of(["meta"], [10], [5]).to_bytes()
        preamble = bytearray(write_preamble(len(data)))
        assert zlib.crc32(data[13:], zlib.crc32(preamble)) == int.from_bytes(data[5:9], "little")
        preamble[-1] ^= 1  # a reserved byte
        with pytest.raises(CorruptionError, match="checksum"):
            Manifest.from_bytes(data, bytes(preamble))

    def test_a_v2_manifest_is_read_without_member_crcs(self):
        """The v7 LogBlock packs' manifest: names and lengths only, its
        CRC over the body alone; a member read checks its length."""
        blob = V7_FIXTURE.read_bytes()
        reader = PackReader(BytesRangeReader(blob), "b", "k", len(blob))
        manifest = reader.manifest()
        assert (manifest.version, manifest.crcs) == (2, None)
        assert manifest.names()[0] == "meta"
        assert reader.data_start + manifest.data_length == len(blob)
        with pytest.raises(CorruptionError, match="not as listed"):
            manifest.check("meta", reader.read_member("meta")[1:])

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=20),
            st.integers(min_value=0, max_value=1 << 40),
            max_size=40,
        )
    )
    def test_any_members_roundtrip(self, members):
        """Unicode names, multi-byte lengths, empty members: the offsets
        the v2 reader rebuilds from the lengths are the writer's."""
        names, lengths = list(members), list(members.values())
        crcs = [length % (1 << 32) for length in lengths]
        manifest = Manifest.of(names, lengths, crcs)
        decoded = reopen(manifest)
        assert decoded.names() == names and decoded.version == 3
        assert decoded.crcs.tolist() == crcs
        assert [decoded.extent(name) for name in names] == [manifest.extent(name) for name in names]
        assert decoded.data_length == sum(lengths)

    @pytest.mark.parametrize("version", [0, 1, 4])
    def test_a_version_outside_the_read_window_is_refused(self, version):
        data = bytearray(Manifest.of(["meta"], [10], [0]).to_bytes())
        data[4] = version
        with pytest.raises(SerializationError, match=f"version {version}$"):
            Manifest.from_bytes(bytes(data), write_preamble(len(data)))

    def test_duplicate_name_rejected(self):
        with pytest.raises(SerializationError):
            Manifest.of(["a", "a"], [1, 1], [0, 0])

    def test_missing_member(self):
        with pytest.raises(KeyError):
            Manifest.of([], [], []).extent("nope")


class TestPreamble:
    def test_roundtrip(self):
        assert read_preamble(write_preamble(1234)) == 1234

    def test_truncated(self):
        with pytest.raises(SerializationError):
            read_preamble(b"PACK")

    def test_bad_magic(self):
        data = bytearray(write_preamble(5))
        data[0:4] = b"JUNK"
        with pytest.raises(CorruptionError):
            read_preamble(bytes(data))


class TestPackBuilder:
    def test_duplicate_rejected(self):
        builder = PackBuilder()
        builder.add("a", b"x")
        with pytest.raises(SerializationError):
            builder.add("a", b"y")

    def test_empty_name_rejected(self):
        with pytest.raises(SerializationError):
            PackBuilder().add("", b"x")

    def test_every_member_read_is_checked_against_the_manifest(self):
        """A damaged member, inside the head chunk or past it, raises
        on its read; the members beside it still read."""
        members = {"meta": b"m" * 100, "col/0/0": b"c" * 20_000, "col/0/1": b"d" * 30}
        blob = pack_members(members)
        reader = PackReader(BytesRangeReader(blob), "b", "k", len(blob))
        for name in members:
            offset, length = reader.member_extent(name)
            damaged = bytearray(blob)
            damaged[offset + length // 2] ^= 0x10
            opened = PackReader(BytesRangeReader(bytes(damaged)), "b", "k", len(blob))
            with pytest.raises(CorruptionError, match=f"{name!r} checksum mismatch"):
                opened.read_member(name)
            assert all(
                opened.read_member(other) == members[other] for other in members if other != name
            )

    def test_empty_member_allowed(self):
        blob = pack_members({"empty": b"", "full": b"abc"})
        store = InMemoryObjectStore()
        store.create_bucket("b")
        store.put("b", "k", blob)
        reader = PackReader(store, "b", "k")
        assert reader.read_member("empty") == b""
        assert reader.read_member("full") == b"abc"


class CountingStore(InMemoryObjectStore):
    def __init__(self):
        super().__init__()
        self.range_log = []

    def get_range(self, bucket, key, start, length):
        self.range_log.append((start, length))
        return super().get_range(bucket, key, start, length)


class TestPackReader:
    def _make_reader(self, members):
        store = InMemoryObjectStore()
        store.create_bucket("b")
        store.put("b", "k", pack_members(members))
        return PackReader(store, "b", "k")

    def test_member_roundtrip(self):
        members = {"meta": b"m" * 100, "idx": b"i" * 50, "col/0/0": b"c" * 77}
        reader = self._make_reader(members)
        for name, data in members.items():
            assert reader.read_member(name) == data

    def test_member_names_preserve_order(self):
        reader = self._make_reader({"z": b"1", "a": b"2"})
        assert reader.member_names() == ["z", "a"]

    def test_extents_are_disjoint_and_ordered(self):
        members = {"a": b"x" * 10, "b": b"y" * 20, "c": b"z" * 5}
        reader = self._make_reader(members)
        extents = [reader.member_extent(n) for n in ("a", "b", "c")]
        assert extents[0][1] == 10
        assert extents[1][0] == extents[0][0] + 10
        assert extents[2][0] == extents[1][0] + 20

    def test_reads_are_ranged_not_whole_object(self):
        """A member read must fetch only that member's bytes."""
        store = CountingStore()
        store.create_bucket("b")
        members = {"small": b"s" * 10, "big": b"B" * 100_000}
        store.put("b", "k", pack_members(members))
        reader = PackReader(store, "b", "k")
        reader.read_member("small")
        # head chunk + the 10-byte member; the 100KB member is never read
        assert all(length <= PackReader.HEAD_CHUNK for _start, length in store.range_log)

    @pytest.mark.parametrize("size", [200, 4096, PackReader.HEAD_CHUNK - 1, PackReader.HEAD_CHUNK])
    def test_a_pack_below_the_head_chunk_opens_in_one_get(self, size):
        """Given its size, a small pack is read whole by the head read,
        and every member is then served from it."""
        store = CountingStore()
        store.create_bucket("b")
        members = {"meta": b"m" * 40, "bloom/ip": b"b" * 20, "col/0/0": b"c" * 30}
        pad = size - len(pack_members({**members, "pad": b""}))
        while len(blob := pack_members({**members, "pad": b"p" * pad})) > size:
            pad -= 1  # the pad's length took a second varint byte
        assert len(blob) == size
        store.put("b", "k", blob)
        reader = PackReader(store, "b", "k", len(blob))
        for name, data in members.items():
            assert reader.read_member(name) == data
        assert store.range_log == [(0, size)]

    def test_a_pack_of_unknown_size_still_opens(self):
        store = CountingStore()
        store.create_bucket("b")
        store.put("b", "k", pack_members({"m": b"hello"}))
        reader = PackReader(store, "b", "k")
        assert reader.read_member("m") == b"hello"
        # The refused head read, the preamble, the manifest, the member.
        assert len(store.range_log) == 4

    def test_attach_manifest_skips_fetches(self):
        store = InMemoryObjectStore()
        store.create_bucket("b")
        blob = pack_members({"m": b"hello"})
        store.put("b", "k", blob)
        first = PackReader(store, "b", "k")
        manifest = first.manifest()
        second = PackReader(store, "b", "k")
        second.attach_manifest(manifest, first.data_start)
        assert second.read_member("m") == b"hello"

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=["Ll", "Nd"]),
                min_size=1,
                max_size=12,
            ),
            st.binary(max_size=500),
            min_size=1,
            max_size=10,
        )
    )
    def test_property_roundtrip(self, members):
        reader = self._make_reader(members)
        assert set(reader.member_names()) == set(members)
        for name, data in members.items():
            assert reader.read_member(name) == data
