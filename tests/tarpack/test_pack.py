"""Tar-with-manifest packaging tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import CorruptionError, SerializationError
from repro.oss.store import InMemoryObjectStore
from repro.tarpack.manifest import Manifest, MemberEntry
from repro.tarpack.packer import PackBuilder, pack_members, read_preamble, write_preamble
from repro.tarpack.reader import PackReader


class TestManifest:
    def test_roundtrip(self):
        manifest = Manifest(
            [MemberEntry("meta", 0, 10), MemberEntry("idx/ip", 10, 250)]
        )
        decoded = Manifest.from_bytes(manifest.to_bytes())
        assert decoded.names() == ["meta", "idx/ip"]
        assert decoded.get("idx/ip").offset == 10
        assert decoded.get("idx/ip").length == 250

    def test_duplicate_name_rejected(self):
        manifest = Manifest([MemberEntry("a", 0, 1)])
        with pytest.raises(SerializationError):
            manifest.add(MemberEntry("a", 1, 1))

    def test_missing_member(self):
        with pytest.raises(KeyError):
            Manifest().get("nope")


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

    def test_empty_member_allowed(self):
        blob = pack_members({"empty": b"", "full": b"abc"})
        store = InMemoryObjectStore()
        store.create_bucket("b")
        store.put("b", "k", blob)
        reader = PackReader(store, "b", "k")
        assert reader.read_member("empty") == b""
        assert reader.read_member("full") == b"abc"


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

        class CountingStore(InMemoryObjectStore):
            def __init__(self):
                super().__init__()
                self.range_log = []

            def get_range(self, bucket, key, start, length):
                self.range_log.append((start, length))
                return super().get_range(bucket, key, start, length)

        store = CountingStore()
        store.create_bucket("b")
        members = {"small": b"s" * 10, "big": b"B" * 100_000}
        store.put("b", "k", pack_members(members))
        reader = PackReader(store, "b", "k")
        reader.read_member("small")
        # head chunk + the 10-byte member; the 100KB member is never read
        assert all(length <= PackReader.HEAD_CHUNK for _start, length in store.range_log)

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
