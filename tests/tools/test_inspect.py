"""LogBlock inspection CLI tests."""

import io
from pathlib import Path

import pytest

from repro.tools.inspect import main, open_block

from tests.conftest import make_rows, write_logblock

V7_FIXTURE = str(Path(__file__).parent.parent / "fixtures" / "logblock_v7_golden.lgb")


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
        for path, version, manifest in ((block_path, "v8", "v3"), (V7_FIXTURE, "v7", "v2")):
            for flags in ([], ["--members"]):
                out = io.StringIO()
                assert main([*flags, path], out=out) == 0
                text = " ".join(out.getvalue().split())
                assert f"format: {version}" in text
                assert (f"manifest: {manifest}" in text) == bool(flags)

    def test_members_break_a_string_block_into_its_sections(self, block_path):
        out = io.StringIO()
        assert main(["--members", block_path], out=out) == 0
        table = out.getvalue().split("string block", 1)[1].splitlines()
        assert table[0].split()[:3] == ["encoding", "lengths", "text"]
        rows = {line.split()[0]: line.split()[1:] for line in table[1:] if line.strip()}
        # 100 rows in blocks of 32: ip (column 2) repeats 10 values, log (6) never.
        assert sorted(rows) == sorted(f"col/{c}/{b}" for c in (2, 3, 6) for b in range(4))
        assert rows["col/2/0"] == ["dict", "10", str(sum(len(f"192.168.0.{i}") for i in range(10)))]
        reader = open_block(block_path)
        logs = reader.read_block("log", 0)
        assert rows["col/6/0"] == ["plain", "32", str(sum(len(v.encode()) for v in logs))]

    def test_members_describe_each_numeric_index(self, block_path):
        out = io.StringIO()
        assert main(["--members", block_path], out=out) == 0
        table = out.getvalue().split("numeric index", 1)[1].split("\n\n")[0].splitlines()
        rows = {line.split()[0]: line.split()[1:] for line in table[1:]}
        assert rows["idx/tenant_id"] == ["1", "0", "in-order"] and rows["idx/ts"][2] == "in-order"
        # 93 latencies spanning 485 are at most 23 apart, and 100 row
        # ids take one byte either way.
        assert rows["idx/latency"] == ["93", "1", "gaps", "1"]
        assert rows["idx/fail"] == ["2", "1", "gaps", "1"] and len(rows) == 4

    @pytest.mark.parametrize("version", ["v7", "v8"])
    def test_members_name_each_int_blocks_frame(self, block_path, version):
        """tenant_id (column 0) is constant and ts (1) ascends: delta;
        latency (4) is neither: FOR.  v7 and v8 int blocks are alike."""
        path = V7_FIXTURE if version == "v7" else block_path
        out = io.StringIO()
        assert main(["--members", path], out=out) == 0
        table = out.getvalue().split("int block", 1)[1].split("\n\n")[0].splitlines()
        assert table[0].split() == ["frame", "width"]
        rows = {line.split()[0]: line.split()[1:] for line in table[1:]}
        blocks = len(rows) // 3
        assert sorted(rows) == sorted(f"col/{c}/{b}" for c in (0, 1, 4) for b in range(blocks))
        assert rows["col/0/0"] == ["delta", "0"] and rows["col/1/0"][0] == "delta"
        assert rows["col/4/0"][0] == "for"

    def test_members_break_an_inverted_index_into_its_sections(self, block_path):
        out = io.StringIO()
        assert main(["--members", block_path], out=out) == 0
        table = out.getvalue().split("inverted index", 1)[1].split("\n\n")[0].splitlines()
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
