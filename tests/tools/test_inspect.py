"""LogBlock inspection CLI tests."""

import io
from pathlib import Path

import pytest

from repro.tools.inspect import main, open_block

from tests.conftest import make_rows, write_logblock


@pytest.fixture
def block_path(tmp_path):
    path = tmp_path / "sample.lgb"
    path.write_bytes(write_logblock(make_rows(100), block_rows=32))
    return str(path)


class TestOpenBlock:
    def test_reads_like_object_store(self, block_path):
        reader = open_block(block_path)
        assert reader.row_count == 100
        assert reader.meta().schema.name == "request_log"
        assert len(reader.read_column("ip")) == 100


class TestCli:
    def test_summary(self, block_path):
        out = io.StringIO()
        assert main([block_path], out=out) == 0
        text = out.getvalue()
        assert "table:        request_log" in text
        assert "rows:         100" in text
        for column in ("tenant_id", "ts", "ip", "latency", "fail", "log"):
            assert column in text

    def test_members(self, block_path):
        out = io.StringIO()
        assert main(["--members", block_path], out=out) == 0
        text = out.getvalue()
        assert "meta" in text
        assert "idx/ip" in text
        assert "col/0/0" in text

    def test_names_the_format_version(self, block_path):
        fixture = str(Path(__file__).parent.parent / "fixtures" / "logblock_v3_golden.lgb")
        for path, version in ((block_path, "v4"), (fixture, "v3")):
            for flags in ([], ["--members"]):
                out = io.StringIO()
                assert main([*flags, path], out=out) == 0
                assert f"format: {version}" in " ".join(out.getvalue().split())

    def test_members_break_an_inverted_index_into_its_sections(self, block_path):
        out = io.StringIO()
        assert main(["--members", block_path], out=out) == 0
        table = out.getvalue().split("inverted index", 1)[1].splitlines()
        assert table[0].split()[:4] == ["terms", "dictionary", "counts", "postings"]
        index = open_block(block_path).read_index("ip")
        sizes = index.section_sizes()
        assert table[1].split() == [
            "idx/ip", "10", str(sizes["dictionary"]), str(sizes["counts"]), str(sizes["postings"])
        ]
        # 10 one-byte counts, 100 one-byte deltas (row ids 10 apart).
        assert (sizes["counts"], sizes["postings"]) == (10, 100)
        assert [line.split()[0] for line in table[1:]] == ["idx/ip", "idx/api", "idx/log"]

    def test_column_dump_with_limit(self, block_path):
        out = io.StringIO()
        assert main(["--column", "ip", "--limit", "3", block_path], out=out) == 0
        lines = out.getvalue().strip().splitlines()
        assert lines[:3] == ["192.168.0.0", "192.168.0.1", "192.168.0.2"]
        assert "97 more" in lines[3]

    def test_missing_file(self, tmp_path):
        assert main([str(tmp_path / "nope.lgb")], out=io.StringIO()) == 2

    def test_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.lgb"
        bad.write_bytes(b"this is not a pack")
        assert main([str(bad)], out=io.StringIO()) == 1

    def test_unknown_column(self, block_path):
        assert main(["--column", "ghost", block_path], out=io.StringIO()) == 1
