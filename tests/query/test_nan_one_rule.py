"""One NaN rule for realtime and archived rows.

A client that puts the same NaN object three times into a FLOAT64
column gets rows a dict would key together (a dict matches a NaN by
identity) and ``np.unique`` never does.  The answer must not depend on
where the rows sit — the plain shard's memtable holding the client's
objects, a Raft replica's decoded copies, or an archived LogBlock: a
NaN equals nothing, itself included, so each NaN row is a group of its
own and a distinct value of its own.  And one order sorts them: a NaN
above every number, a null above a NaN.  An int put into a FLOAT64
column is the float it is archived as from admission on.
"""

import pytest

from repro import LogStore, small_test_config
from repro.logblock.schema import ColumnSpec, ColumnType

from tests.conftest import BASE_TS

NAN = float("nan")
GROUPED = "SELECT f, COUNT(*) FROM request_log WHERE tenant_id = 1 GROUP BY f"
DISTINCT = "SELECT COUNT(DISTINCT f), COUNT(f), COUNT(*) FROM request_log WHERE tenant_id = 1"


# Tenant 2's f, an int among them.
FIVE = [2.0, NAN, 1, NAN, 0.5]
ORDERED = "SELECT f FROM request_log WHERE tenant_id = 2 ORDER BY f"
FIVE_GROUPS = "SELECT f, COUNT(*) FROM request_log WHERE tenant_id = 2 GROUP BY f"


def answers(store: LogStore) -> tuple:
    groups = store.query(GROUPED).rows
    nan_groups = [row["COUNT(*)"] for row in groups if row["f"] is not None]
    nulls = [row["COUNT(*)"] for row in groups if row["f"] is None]
    assert all(row["f"] != row["f"] for row in groups if row["f"] is not None)
    # repr: a NaN equals no NaN, and 1 == 1.0.
    ordered = [
        repr([row["f"] for row in store.query(sql).rows])
        for sql in (ORDERED, ORDERED + " DESC", FIVE_GROUPS)
    ]
    return nan_groups, nulls, store.query(DISTINCT).rows, ordered


@pytest.mark.parametrize("use_raft", [False, True], ids=["plain", "raft"])
def test_nan_rows_group_and_count_alike_before_and_after_archiving(use_raft):
    store = LogStore.create(config=small_test_config(use_raft=use_raft))
    store.catalog.add_column(ColumnSpec("f", ColumnType.FLOAT64))
    values = [NAN, NAN, NAN, None]  # one NaN object, three times
    store.put(1, [{"tenant_id": 1, "ts": BASE_TS + i, "f": f} for i, f in enumerate(values)])
    store.put(2, [{"tenant_id": 2, "ts": BASE_TS + i, "f": f} for i, f in enumerate(FIVE)])
    expected = (
        [1, 1, 1],
        [1],
        [{"COUNT(DISTINCT f)": 3, "COUNT(f)": 3, "COUNT(*)": 4}],
        [
            "[0.5, 1.0, 2.0, nan, nan]",
            "[nan, nan, 2.0, 1.0, 0.5]",
            "[0.5, 1.0, 2.0, nan, nan]",
        ],
    )
    assert answers(store) == expected  # realtime
    store.flush_all()
    assert store.pending_rows() == 0
    assert answers(store) == expected  # archived
