"""LogBlock inspection CLI.

Dump the structure of a packed LogBlock file (as produced by the data
builder and stored on OSS / a LocalFsObjectStore directory):

    python -m repro.tools.inspect path/to/block.lgb
    python -m repro.tools.inspect --members path/to/block.lgb
    python -m repro.tools.inspect --column ip --limit 5 path/to/block.lgb

Because LogBlocks are self-contained (§3.2), everything — format
version, schema, row counts, per-column SMAs, index sizes — is
recoverable from the file alone, with no catalog access.  ``--members``
also prints the manifest version and breaks every inverted index
(dictionary / counts / postings), every numeric index (distinct values,
the widths its value gaps and row-id gaps are stored at, or ``in-order``
when it stores no row ids), every INT64 / TIMESTAMP column block (its
frame, ``delta`` / ``for``, and offset width) and
every string column block (encoding, length section / text bytes) down
into its sections, so a layout regression shows without a debugger.
"""

from __future__ import annotations

import argparse
import sys

from repro.codec import get_codec
from repro.common.utils import human_bytes
from repro.logblock.column import int_frame, string_sections
from repro.logblock.reader import LogBlockReader
from repro.logblock.schema import ColumnType, IndexType
from repro.logblock.writer import block_member
from repro.tarpack.reader import BytesRangeReader, PackReader


def open_block(path: str) -> LogBlockReader:
    """A reader over a LogBlock file on the local filesystem."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return LogBlockReader(PackReader(BytesRangeReader(blob), "-", path, len(blob)))


def _print_summary(reader: LogBlockReader, out) -> None:
    meta = reader.meta()
    schema = meta.schema
    codec = get_codec(meta.codec_id)
    print(f"format:       v{meta.version}", file=out)
    print(f"table:        {schema.name}", file=out)
    print(f"rows:         {meta.row_count}", file=out)
    print(f"column blocks: {meta.n_blocks} x <= {meta.block_rows} rows", file=out)
    print(f"codec:        {codec.name}", file=out)
    print(file=out)
    header = f"{'column':<12} {'type':<10} {'index':<9} {'index size':>11} {'min':>24} {'max':>24}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for column in schema.columns:
        sma = meta.column_sma(column.name)
        index_size = meta.index_sizes.get(column.name, 0)
        index_name = column.index.name.lower() if column.index is not IndexType.NONE else "-"

        def fmt(value):
            if value is None:
                return "null"
            text = str(value)
            return text if len(text) <= 24 else text[:21] + "..."

        print(
            f"{column.name:<12} {column.ctype.name.lower():<10} {index_name:<9} "
            f"{human_bytes(index_size):>11} {fmt(sma.min_value):>24} {fmt(sma.max_value):>24}",
            file=out,
        )


def _print_members(reader: LogBlockReader, out) -> None:
    meta = reader.meta()
    manifest = reader.pack.manifest()
    print(f"format: v{meta.version}", file=out)
    print(f"manifest: v{manifest.version}", file=out)
    print(f"{'member':<20} {'offset':>10} {'size':>12}", file=out)
    for name in manifest.names():
        offset, length = manifest.extent(name)
        print(f"{name:<20} {offset:>10} {human_bytes(length):>12}", file=out)
    print(file=out)
    print(
        f"{'inverted index':<20} {'terms':>8} {'dictionary':>12} {'counts':>10} {'postings':>12}"
        "  (decoded bytes)",
        file=out,
    )
    for column in meta.schema.columns:
        if column.index is not IndexType.INVERTED or column.name not in meta.index_sizes:
            continue
        index = reader.read_index(column.name)
        sizes = index.section_sizes()
        print(
            f"{'idx/' + column.name:<20} {index.term_count:>8} {sizes['dictionary']:>12} "
            f"{sizes['counts']:>10} {sizes['postings']:>12}",
            file=out,
        )
    print(file=out)
    print(f"{'numeric index':<20} {'terms':>8} {'value gaps':>11}  row ids", file=out)
    for column in meta.schema.columns:
        if column.index is not IndexType.BKD or column.name not in meta.index_sizes:
            continue
        index = reader.read_index(column.name)
        rows = "in-order" if index.rows is None else f"gaps {index.row_width}"
        name = "idx/" + column.name
        print(f"{name:<20} {index.term_count:>8} {index.width:>11}  {rows}", file=out)
    print(file=out)
    codec = get_codec(meta.codec_id)
    print(f"{'int block':<20} {'frame':>8} {'width':>6}", file=out)
    for col_idx, column in enumerate(meta.schema.columns):
        if column.ctype not in (ColumnType.INT64, ColumnType.TIMESTAMP):
            continue
        for block_idx in range(meta.n_blocks):
            member = block_member(col_idx, block_idx)
            data = codec.decompress(reader.pack.read_member(member))
            frame, width = int_frame(data)
            print(f"{member:<20} {frame:>8} {width:>6}", file=out)
    print(file=out)
    print(
        f"{'string block':<20} {'encoding':>8} {'lengths':>10} {'text':>12}  (decoded bytes)",
        file=out,
    )
    for col_idx, column in enumerate(meta.schema.columns):
        if column.ctype is not ColumnType.STRING:
            continue
        for block_idx, rows in enumerate(meta.block_row_counts):
            member = block_member(col_idx, block_idx)
            data = codec.decompress(reader.pack.read_member(member))
            encoding, lengths, text = string_sections(data, rows)
            print(f"{member:<20} {encoding:>8} {lengths:>10} {text:>12}", file=out)


def _print_column(reader: LogBlockReader, column: str, limit: int, out) -> None:
    values = reader.read_column(column)
    for value in values[:limit]:
        print(value, file=out)
    if len(values) > limit:
        print(f"... ({len(values) - limit} more)", file=out)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.tools.inspect", description="Inspect a packed LogBlock file."
    )
    parser.add_argument("path", help="path to a .lgb pack file")
    parser.add_argument(
        "--members", action="store_true", help="list the pack's members instead"
    )
    parser.add_argument("--column", help="dump the values of one column")
    parser.add_argument(
        "--limit", type=int, default=20, help="max values to dump with --column"
    )
    args = parser.parse_args(argv)

    try:
        reader = open_block(args.path)
        if args.members:
            _print_members(reader, out)
        elif args.column:
            _print_column(reader, args.column, args.limit, out)
        else:
            _print_summary(reader, out)
    except FileNotFoundError:
        print(f"error: no such file: {args.path}", file=sys.stderr)
        return 2
    except Exception as exc:  # CLI boundary: fold errors to exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
