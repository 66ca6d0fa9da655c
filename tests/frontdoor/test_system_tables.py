"""``_system`` tables through the SQL front door: auth, scoping, SQL."""

from __future__ import annotations

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.errors import AuthError, QueryError
from repro.obs.systables import SYSTEM_TABLE_COLUMNS, SYSTEM_TABLES

_BASE_TS = 1_605_052_800_000_000


def make_rows(tenant_id, count, tag):
    return [
        {
            "tenant_id": tenant_id,
            "ts": _BASE_TS + i * 1_000,
            "ip": f"10.0.0.{i % 8}",
            "api": "/api/v1",
            "latency": 10 + i,
            "fail": False,
            "log": f"{tag}:{i}",
        }
        for i in range(count)
    ]


@pytest.fixture
def store():
    store = LogStore.create(config=small_test_config())
    store.register_tenant(1, "acme")
    store.register_tenant(2, "globex")
    store.put(1, make_rows(1, 150, "t1"))
    store.put(2, make_rows(2, 40, "t2"))
    store.flush_all()
    store.query("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1")
    return store


@pytest.fixture
def admin(store):
    return store.connect_admin(store.issue_admin_token())


@pytest.fixture
def tenant1(store):
    return store.connect(1, store.issue_token(1))


class TestAdminAuth:
    def test_admin_token_deterministic_per_seed(self, store):
        assert store.issue_admin_token() == store.issue_admin_token()

    def test_bad_admin_token_rejected(self, store):
        with pytest.raises(AuthError):
            store.connect_admin("not-the-token")

    def test_tenant_token_is_not_an_admin_token(self, store):
        with pytest.raises(AuthError):
            store.connect_admin(store.issue_token(1))

    def test_revoked_admin_token_rejected(self, store):
        token = store.issue_admin_token()
        store.frontdoor_tokens.revoke_admin()
        with pytest.raises(AuthError):
            store.connect_admin(token)
        assert store.issue_admin_token() == token  # re-issue un-revokes
        store.connect_admin(token)


class TestSelectOverEveryTable:
    def test_select_star_all_five_tables(self, admin):
        for table in SYSTEM_TABLES:
            result = admin.execute(f"SELECT * FROM {table}")
            if result.rows:  # alerts may be empty before any tick
                assert tuple(result.rows[0]) == SYSTEM_TABLE_COLUMNS[table]

    def test_tenants_table_has_usage_and_slo(self, admin):
        rows = admin.execute(
            "SELECT tenant_id, name, rows_ingested, slo_status "
            "FROM _system.tenants ORDER BY tenant_id"
        ).rows
        assert [r["tenant_id"] for r in rows] == [1, 2]
        assert rows[0]["name"] == "acme"
        assert rows[0]["rows_ingested"] == 150
        assert rows[1]["rows_ingested"] == 40
        assert rows[0]["slo_status"] == "ok"

    def test_events_table_shows_cluster_activity(self, admin):
        rows = admin.execute(
            "SELECT kind, COUNT(*) FROM _system.events GROUP BY kind"
        ).rows
        kinds = {r["kind"] for r in rows}
        assert "shard.seal" in kinds
        assert "builder.archive" in kinds

    def test_metrics_table_filter_and_order(self, admin):
        rows = admin.execute(
            "SELECT name, value FROM _system.metrics "
            "WHERE name = 'logstore_tenant_rows_ingested_total'"
        ).rows
        assert rows and all(
            r["name"] == "logstore_tenant_rows_ingested_total" for r in rows
        )

    def test_where_order_limit_compose(self, admin):
        rows = admin.execute(
            "SELECT seq, kind FROM _system.events "
            "WHERE kind = 'shard.seal' ORDER BY seq DESC LIMIT 2"
        ).rows
        assert len(rows) <= 2
        seqs = [r["seq"] for r in rows]
        assert seqs == sorted(seqs, reverse=True)

    @pytest.mark.parametrize("direction, limit", [("", ""), ("DESC", ""), ("DESC", "LIMIT 20")])
    def test_order_by_a_column_holding_nulls(self, admin, direction, limit):
        """Cluster-level metrics have no tenant: nulls sort last (first
        when descending) and ties keep table order, as python's sort."""
        select = "SELECT name, labels, tenant_id FROM _system.metrics"
        admin.execute(select)  # its own counters exist from here on
        unordered = admin.execute(select).rows
        tenants = {row["tenant_id"] for row in unordered}
        assert None in tenants and len(tenants) > 2
        expected = sorted(
            unordered,
            key=lambda row: (row["tenant_id"] is None, row["tenant_id"]),
            reverse=bool(direction),
        )
        got = admin.execute(f"{select} ORDER BY tenant_id {direction} {limit}").rows
        assert got == (expected[:20] if limit else expected)

    def test_order_by_mixed_int_and_str_keys(self, admin, monkeypatch):
        """Keys Python cannot compare are refused, as Python's sort
        refuses them."""
        targets = [3, "a", None, 1, "b"]
        monkeypatch.setattr(
            "repro.cluster.broker.system_table_rows",
            lambda *args, **kwargs: [{"seq": i, "target": t} for i, t in enumerate(targets)],
        )
        with pytest.raises(TypeError, match="not supported between"):
            admin.execute("SELECT seq, target FROM _system.events ORDER BY target")

    def test_unknown_system_table_rejected(self, admin):
        with pytest.raises(QueryError, match="unknown system table"):
            admin.execute("SELECT * FROM _system.nope")

    def test_explain_describes_system_scan(self, store, admin):
        text = store.explain("SELECT * FROM _system.tenants")
        assert "_system.tenants" in text

    def test_insert_into_system_table_rejected(self, admin):
        with pytest.raises(QueryError):
            admin.execute("INSERT INTO _system.tenants (tenant_id) VALUES (9)")


class TestTenantScoping:
    def test_non_admin_sees_only_own_tenant_rows(self, store, tenant1):
        rows = tenant1.execute("SELECT tenant_id FROM _system.tenants").rows
        assert rows == [{"tenant_id": 1}]

    def test_non_admin_metrics_hide_cluster_and_other_tenants(self, tenant1):
        rows = tenant1.execute("SELECT tenant_id FROM _system.metrics").rows
        assert rows and all(r["tenant_id"] == 1 for r in rows)

    def test_non_admin_events_hide_unattributed(self, store, tenant1):
        # Raft elections and seals carry no tenant attribution; a tenant
        # session must not see them.  Archives are attributed per tenant.
        rows = tenant1.execute("SELECT kind, tenant_id FROM _system.events").rows
        assert all(r["tenant_id"] == 1 for r in rows)
        admin_rows = store.connect_admin(store.issue_admin_token()).execute(
            "SELECT kind FROM _system.events"
        ).rows
        assert len(admin_rows) > len(rows)

    def test_admin_sees_both_tenants(self, admin):
        rows = admin.execute("SELECT tenant_id FROM _system.tenants").rows
        assert [r["tenant_id"] for r in rows] == [1, 2]


class TestSloAndAlertsEndToEnd:
    def force_burn(self, store, session):
        """Drive tenant 1's SLO into burn via real failed queries."""
        for _ in range(5):
            with pytest.raises(QueryError):
                session.execute("SELECT nonexistent_column FROM request_log")

    def test_burning_tenant_selectable(self, store, tenant1, admin):
        self.force_burn(store, tenant1)
        rows = admin.execute(
            "SELECT tenant_id, slo_status FROM _system.tenants "
            "WHERE slo_status = 'burning'"
        ).rows
        assert {r["tenant_id"] for r in rows} == {1}

    def test_alert_fires_into_alerts_table_and_journal(self, store, tenant1, admin):
        self.force_burn(store, tenant1)
        transitions = store.evaluate_alerts()
        assert any(a.name == "tenant-slo-burn" and a.tenant_id == 1 for a in transitions)
        rows = admin.execute(
            "SELECT name, state, tenant_id FROM _system.alerts "
            "WHERE name = 'tenant-slo-burn'"
        ).rows
        assert rows == [{"name": "tenant-slo-burn", "state": "active", "tenant_id": 1}]
        events = admin.execute(
            "SELECT kind FROM _system.events WHERE kind = 'alert.fire'"
        ).rows
        assert events

    def test_alert_resolves_when_window_clears(self, store, tenant1, admin):
        self.force_burn(store, tenant1)
        store.evaluate_alerts()
        store.clock.advance(4000.0)  # past the 3600s SLO window
        transitions = store.evaluate_alerts()
        assert any(a.state == "resolved" for a in transitions)
        rows = admin.execute(
            "SELECT state FROM _system.alerts WHERE name = 'tenant-slo-burn'"
        ).rows
        assert rows == [{"state": "resolved"}]


class TestSlowQueryStatement:
    def test_slow_queries_show_original_sql(self):
        store = LogStore.create(config=small_test_config(slow_query_s=0.0))
        store.register_tenant(1, "acme")
        store.put(1, make_rows(1, 30, "sq"))
        store.flush_all()
        session = store.connect(1, store.issue_token(1))
        sql = "SELECT COUNT(*) FROM request_log WHERE latency > 5"
        session.execute(sql)
        admin = store.connect_admin(store.issue_admin_token())
        rows = admin.execute(
            "SELECT statement, tenant_id FROM _system.slow_queries"
        ).rows
        assert any(r["statement"] == sql and r["tenant_id"] == 1 for r in rows)
