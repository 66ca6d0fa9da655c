"""The SQL front door: tokens, sessions, versioned DDL/DML, rewrites."""

from __future__ import annotations

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.common.errors import AuthError, QueryError
from repro.frontdoor.auth import TokenRegistry
from repro.obs.report import SEMANTIC_REWRITES

CREATE = (
    "CREATE TABLE workflow_runs ("
    "run_id STRING, status STRING, elapsed INT64, finished_at STRING, "
    "VERSION BY run_id)"
)

LATEST = (
    "SELECT run_id, status FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY run_id ORDER BY version DESC) AS rn "
    "FROM workflow_runs) WHERE rn = 1"
)


@pytest.fixture
def store():
    store = LogStore.create(config=small_test_config())
    store.create_table(CREATE)
    return store


@pytest.fixture
def session(store):
    return store.connect(1, store.issue_token(1))


class TestTokens:
    def test_issue_is_deterministic_per_seed(self):
        assert TokenRegistry(7).issue(1) == TokenRegistry(7).issue(1)
        assert TokenRegistry(7).issue(1) != TokenRegistry(8).issue(1)
        assert TokenRegistry(7).issue(1) != TokenRegistry(7).issue(2)

    def test_connect_rejects_bad_token(self, store):
        with pytest.raises(AuthError):
            store.connect(1, "not-a-token")
        with pytest.raises(AuthError):
            store.connect(2, store.issue_token(1))  # another tenant's token

    def test_revoke_and_reissue(self, store):
        token = store.issue_token(1)
        store.frontdoor_tokens.revoke(1)
        with pytest.raises(AuthError):
            store.connect(1, token)
        assert store.issue_token(1) == token  # re-issue un-revokes
        assert store.connect(1, token).tenant_id == 1

    def test_pool_exhaustion_and_close(self):
        store = LogStore.create(config=small_test_config(max_sessions=2))
        token = store.issue_token(1)
        first = store.connect(1, token)
        store.connect(1, token)
        with pytest.raises(QueryError, match="exhausted"):
            store.connect(1, token)
        first.close()
        store.connect(1, token)  # closed sessions free their slot
        assert store.sessions.live_sessions() == 2

    def test_closed_session_rejects_statements(self, session):
        session.close()
        with pytest.raises(QueryError, match="closed"):
            session.execute("SELECT run_id FROM workflow_runs")


class TestTenantScope:
    def test_select_is_scoped_to_session_tenant(self, store, session):
        session.execute(
            "INSERT INTO workflow_runs (run_id, status) VALUES ('a', 'running')"
        )
        other = store.connect(2, store.issue_token(2))
        other.execute(
            "INSERT INTO workflow_runs (run_id, status) VALUES ('b', 'running')"
        )
        rows = session.execute("SELECT run_id, tenant_id FROM workflow_runs").rows
        assert [row["run_id"] for row in rows] == ["a"]
        assert all(row["tenant_id"] == 1 for row in rows)

    def test_conflicting_tenant_filter_raises(self, session):
        with pytest.raises(AuthError):
            session.execute("SELECT run_id FROM workflow_runs WHERE tenant_id = 2")

    def test_matching_tenant_filter_is_allowed(self, session):
        result = session.execute(
            "SELECT run_id FROM workflow_runs WHERE tenant_id = 1"
        )
        assert result.rows == []

    def test_insert_rejects_foreign_tenant(self, session):
        with pytest.raises(AuthError):
            session.execute(
                "INSERT INTO workflow_runs (tenant_id, run_id) VALUES (2, 'x')"
            )


class TestInsert:
    def test_read_your_writes(self, session):
        result = session.execute(
            "INSERT INTO workflow_runs (run_id, status, elapsed) "
            "VALUES ('r1', 'running', 5), ('r2', 'running', 7)"
        )
        assert result.rows_inserted == 2
        rows = session.execute(
            "SELECT run_id, elapsed FROM workflow_runs ORDER BY elapsed"
        ).rows
        assert rows == [
            {"run_id": "r1", "elapsed": 5},
            {"run_id": "r2", "elapsed": 7},
        ]

    def test_versions_are_stamped_strictly_monotonic(self, session):
        versions = []
        for seq in range(5):
            result = session.execute(
                f"INSERT INTO workflow_runs (run_id) VALUES ('r{seq}')"
            )
            versions.extend(result.versions)
        assert all(b > a for a, b in zip(versions, versions[1:]))

    def test_explicit_version_is_respected(self, session):
        result = session.execute(
            "INSERT INTO workflow_runs (run_id, version) VALUES ('r', 42)"
        )
        assert result.versions == [42]

    def test_prepared_statement_binds_parameters(self, session):
        statement = session.prepare(
            "INSERT INTO workflow_runs (run_id, status) VALUES (?, ?)"
        )
        statement.execute(("r1", "it's done"))
        rows = session.execute(
            "SELECT status FROM workflow_runs WHERE run_id = 'r1'"
        ).rows
        assert rows == [{"status": "it's done"}]

    def test_arity_and_unknown_column_errors(self, session):
        with pytest.raises(QueryError, match="values for"):
            session.execute("INSERT INTO workflow_runs (run_id) VALUES ('a', 'b')")
        with pytest.raises(Exception):
            session.execute("INSERT INTO workflow_runs (nope) VALUES (1)")
        with pytest.raises(QueryError, match="unknown table"):
            session.execute("INSERT INTO other_table (run_id) VALUES ('a')")


class TestVersionedRead:
    def test_insert_as_update_returns_latest(self, session):
        update = session.prepare(
            "INSERT INTO workflow_runs (run_id, status) VALUES (?, ?)"
        )
        update.execute(("r1", "running"))
        update.execute(("r2", "running"))
        update.execute(("r1", "succeeded"))
        rows = session.execute(LATEST).rows
        assert rows == [
            {"run_id": "r2", "status": "running"},
            {"run_id": "r1", "status": "succeeded"},
        ]

    def test_latest_spans_archived_and_realtime(self, store, session):
        update = session.prepare(
            "INSERT INTO workflow_runs (run_id, status) VALUES (?, ?)"
        )
        for seq in range(40):
            update.execute((f"run-{seq % 8}", "running"))
        store.flush_all()  # older versions now live in OSS LogBlocks
        update.execute(("run-3", "succeeded"))
        rows = session.execute(LATEST).rows
        by_run = {row["run_id"]: row["status"] for row in rows}
        assert len(rows) == 8
        assert by_run["run-3"] == "succeeded"
        assert all(status == "running" for run, status in by_run.items() if run != "run-3")


class TestRewriteVisibility:
    def test_explain_shows_rewrites_and_dedup(self, session):
        text = session.explain(LATEST + " AND finished_at IS NOT NULL")
        assert "semantic rewrites: latest_by_key, notnull_pushdown" in text
        assert "latest-version dedup: partition by run_id order by version desc" in text
        assert "session scope: tenant 1" in text

    def test_explain_naive_when_no_rule_applies(self, store, session):
        # rn = 2 ("previous version") takes no rewrite.
        text = store.explain(LATEST.replace("rn = 1", "rn = 2"))
        assert "naive window materialization" in text
        assert "semantic rewrites" not in text

    def test_rewrites_are_counted(self, store, session):
        session.execute("INSERT INTO workflow_runs (run_id) VALUES ('r')")
        counter = store.obs.registry.counter(
            SEMANTIC_REWRITES,
            "Semantic-rewrite rule applications by the front-door optimizer.",
            rule="latest_by_key",
        )
        before = counter.value
        session.execute(LATEST)
        assert counter.value == before + 1


class TestDdl:
    def test_create_is_idempotent_for_same_definition(self, store):
        schema = store.create_table(CREATE)
        assert schema.name == "workflow_runs"
        assert store.create_table(CREATE).name == "workflow_runs"

    def test_if_not_exists_tolerates_existing_table(self, store, session):
        session.execute(
            "CREATE TABLE IF NOT EXISTS workflow_runs (other STRING)"
        )
        assert store.schema.name == "workflow_runs"
        assert "other" not in store.schema.column_names()

    def test_conflicting_redefinition_raises(self, store):
        with pytest.raises(QueryError, match="different definition"):
            store.create_table("CREATE TABLE workflow_runs (other STRING)")

    def test_create_requires_empty_store(self, store, session):
        session.execute("INSERT INTO workflow_runs (run_id) VALUES ('r')")
        with pytest.raises(QueryError, match="empty store"):
            store.create_table("CREATE TABLE fresh_table (x INT64)")

    def test_system_columns_and_version_column_are_added(self, store):
        names = store.schema.column_names()
        assert names[:2] == ["tenant_id", "ts"]
        assert "version" in names
        spec = store.catalog.version_spec
        assert spec.key_column == "run_id"
        assert spec.version_column == "version"
