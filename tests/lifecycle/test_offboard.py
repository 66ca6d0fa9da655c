"""Tenant offboarding: portable export, verified zero-residue delete."""

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.lifecycle.offboard import EXPORT_MANIFEST_MEMBER, export_member, export_path
from repro.logblock.reader import LogBlockReader
from repro.meta.manifest import decode_manifest
from repro.tarpack.reader import BytesRangeReader, PackReader

from tests.conftest import make_rows


@pytest.fixture
def store():
    store = LogStore.create(config=small_test_config(cold_target_rows=200))
    store.register_tenant(1, name="leaver")
    store.register_tenant(2, name="stayer")
    store.put(1, make_rows(400, tenant_id=1))
    store.put(2, make_rows(150, tenant_id=2, seed=5))
    store.flush_all()
    return store


class TestOffboard:
    def test_verified_full_delete(self, store):
        blocks_before = len(store.catalog.tenant(1).blocks)
        report = store.offboard_tenant(1)
        assert report.verified
        assert report.exported_blocks == blocks_before
        assert report.deleted_objects >= blocks_before
        assert report.residue == []
        # The three proofs: catalog, OSS listing, live query.
        assert 1 not in {t.tenant_id for t in store.catalog.tenants()}
        stored = [s.key for s in store.oss.list(store.config.bucket, "tenants/000001/")]
        assert stored == []
        assert report.query_rows == 0

    def test_export_archive_is_portable(self, store):
        rows_before = store.catalog.tenant(1).total_rows
        entries = store.catalog.blocks_for(1)
        report = store.offboard_tenant(1)
        assert report.export_key == export_path(1)
        pack = PackReader(store.oss, store.config.bucket, report.export_key)
        (record,) = decode_manifest(pack.read_member(EXPORT_MANIFEST_MEMBER)).tenants
        assert record.name == "leaver" and list(record.blocks) == entries
        assert len(pack.member_names()) == report.exported_blocks + 1
        # Every exported member is a readable, self-contained LogBlock
        # holding its entry's rows, the tenant's full corpus in all.
        for position, entry in enumerate(record.blocks):
            blob = pack.read_member(export_member(position))
            reader = LogBlockReader(PackReader(BytesRangeReader(blob), "export", "member"))
            assert reader.meta().row_count == entry.row_count
        assert sum(entry.row_count for entry in record.blocks) == rows_before

    def test_other_tenants_untouched(self, store):
        before = store.query(
            "SELECT ts, log FROM request_log WHERE tenant_id = 2"
        ).rows
        store.offboard_tenant(1)
        after = store.query(
            "SELECT ts, log FROM request_log WHERE tenant_id = 2"
        ).rows
        assert after == before
        assert len(store.catalog.tenant(2).blocks) > 0

    def test_offboard_is_idempotent(self, store):
        first = store.offboard_tenant(1)
        assert first.verified
        again = store.offboard_tenant(1)
        assert again.verified
        assert again.deleted_objects == 0
        assert again.query_rows == 0

    def test_offboard_without_export(self, store):
        report = store.offboard_tenant(1, export=False)
        assert report.verified
        assert report.export_key is None
        assert not store.oss.exists(store.config.bucket, export_path(1))

    def test_offboard_flushes_unarchived_rows(self, store):
        store.put(1, make_rows(50, tenant_id=1, seed=77))
        report = store.offboard_tenant(1)
        assert report.verified and report.query_rows == 0

    def test_cold_tenant_offboards_cleanly(self, store):
        from tests.lifecycle.test_cold import demote

        demote(store)
        segments = store.catalog.segment_paths()
        assert segments
        report = store.offboard_tenant(1)
        assert report.verified
        stored = {s.key for s in store.oss.list(store.config.bucket, "tenants/")}
        assert not any(key in stored for key in segments)
