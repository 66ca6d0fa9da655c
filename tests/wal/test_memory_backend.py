"""``MemorySegmentBackend`` keeps frames in a list and joins on read.

Whatever the interleaving of appends, reads and deletes, a segment's
bytes are the concatenation of what was appended to it since it was
last deleted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WalError
from repro.wal.log import MemorySegmentBackend

SEGMENT = st.integers(min_value=0, max_value=3)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), SEGMENT, st.binary(max_size=12)),
        st.tuples(st.just("append_mutable"), SEGMENT, st.binary(max_size=12)),
        st.tuples(st.just("read"), SEGMENT),
        st.tuples(st.just("delete"), SEGMENT),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_segment_bytes_are_the_concatenated_appends(ops):
    backend = MemorySegmentBackend()
    model: dict[int, bytes] = {}
    for op, segment, *data in ops:
        if op == "append":
            backend.append(segment, data[0])
            model[segment] = model.get(segment, b"") + data[0]
        elif op == "append_mutable":
            # The backend keeps its own copy of a mutable buffer.
            buffer = bytearray(data[0])
            backend.append(segment, buffer)
            buffer[:] = b"\xff" * len(buffer)
            model[segment] = model.get(segment, b"") + data[0]
        elif op == "read":
            if segment in model:
                assert backend.read(segment) == model[segment]
            else:
                with pytest.raises(WalError):
                    backend.read(segment)
        else:
            backend.delete(segment)
            model.pop(segment, None)
        assert backend.segments() == sorted(model)
    for segment, expected in model.items():
        assert backend.read(segment) == expected
        assert backend.read(segment) == expected  # a second read, after the join
