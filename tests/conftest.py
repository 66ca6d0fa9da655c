"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.common.clock import VirtualClock
from repro.logblock.schema import request_log_schema
from repro.logblock.writer import LogBlockWriter
from repro.oss.costmodel import free
from repro.oss.metered import MeteredObjectStore
from repro.oss.store import InMemoryObjectStore
from repro.query.planner import parse_timestamp

BASE_TS = parse_timestamp("2020-11-11 00:00:00")
MICROS = 1_000_000


def make_rows(
    count: int,
    tenant_id: int = 1,
    seed: int = 0,
    start_ts: int = BASE_TS,
    step_micros: int = MICROS,
) -> list[dict]:
    """Deterministic request_log rows for tests."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        latency = rng.randint(1, 500)
        fail = rng.random() < 0.05
        rows.append(
            {
                "tenant_id": tenant_id,
                "ts": start_ts + i * step_micros,
                "ip": f"192.168.0.{i % 10}",
                "api": f"/api/v{i % 3}",
                "latency": latency,
                "fail": fail,
                "log": (
                    f"GET /api/v{i % 3} rid_{i} from 192.168.0.{i % 10} "
                    f"took {latency}ms status {'error' if fail else 'ok'}"
                ),
            }
        )
    return rows


def rowstore_state(store) -> tuple:
    """Everything a RowStore differential compares: the ingest counter,
    each sealed memtable's rows, the active rows, the size accounting."""
    return (
        store.total_rows_ingested,
        [list(t.scan()) for t in store.take_sealed()],
        list(store.active.scan()),
        store.approx_bytes(),
    )


def write_logblock(rows: list[dict], codec: str = "zlib", block_rows: int = 64) -> bytes:
    """Rows → packed LogBlock bytes."""
    writer = LogBlockWriter(request_log_schema(), codec=codec, block_rows=block_rows)
    writer.append_many(rows)
    return writer.finish()


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def mem_store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.create_bucket("test")
    return store


@pytest.fixture
def free_store(clock) -> MeteredObjectStore:
    """A metered store whose cost model charges (almost) nothing."""
    store = MeteredObjectStore(InMemoryObjectStore(), free(), clock)
    store.create_bucket("test")
    return store


@pytest.fixture
def schema():
    return request_log_schema()
