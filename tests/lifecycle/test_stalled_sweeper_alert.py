"""Stalled-sweeper detection: the alert that fires when expiry stops."""

import pytest

from repro.cluster.config import small_test_config
from repro.cluster.logstore import LogStore
from repro.lifecycle import stalled_sweeper_rule
from repro.lifecycle.manager import SWEEP_STALLED_TICKS
from repro.obs.alerts import default_alert_rules
from repro.obs.registry import MetricsRegistry

from tests.conftest import BASE_TS, MICROS, make_rows


def snapshot(stalled_ticks):
    registry = MetricsRegistry()
    registry.gauge(SWEEP_STALLED_TICKS).set(stalled_ticks)
    return registry.snapshot()


class TestRule:
    def test_fires_after_stall_ticks(self):
        rule = stalled_sweeper_rule(5)
        fired = list(rule.evaluate(snapshot(5), None))
        assert fired == [(SWEEP_STALLED_TICKS, None, 5.0)]

    def test_silent_below_the_threshold(self):
        rule = stalled_sweeper_rule(5)
        assert list(rule.evaluate(snapshot(4), None)) == []
        assert list(rule.evaluate(snapshot(0), None)) == []

    def test_factory_sets_threshold(self):
        assert stalled_sweeper_rule(9).threshold == 9
        with pytest.raises(ValueError):
            stalled_sweeper_rule(0)


class TestWiredIntoCluster:
    @pytest.fixture
    def store(self):
        """Sweeping disabled: retention debt accrues, sweeps never land."""
        store = LogStore.create(
            config=small_test_config(
                lifecycle_sweep_enabled=False,
                alert_rules=default_alert_rules() + (stalled_sweeper_rule(3),),
            )
        )
        store.register_tenant(1)
        store.put(1, make_rows(300, tenant_id=1))
        store.flush_all()
        return store

    def age_past_ttl(self, store):
        store.set_retention(1, ttl="1h")
        target_s = BASE_TS / MICROS + 300 + 2 * 3_600
        store.clock.sleep(max(0.0, target_s - store.clock.now()))

    def stalled(self, store):
        return store.obs.registry.snapshot().gauge_value(SWEEP_STALLED_TICKS)

    def test_silent_without_candidates(self, store):
        """Unswept ticks are no debt while nothing has expired."""
        readings = []
        for _ in range(6):
            store.run_background_tasks()
            readings.append(self.stalled(store))
        assert readings == [0] * 6
        assert store.obs.alerts.active() == []

    def test_silent_while_sweeps_land(self):
        """Expired blocks wait at every tick, but each tick sweeps them."""
        store = LogStore.create(
            config=small_test_config(
                alert_rules=default_alert_rules() + (stalled_sweeper_rule(1),),
            )
        )
        store.register_tenant(1)
        store.set_retention(1, ttl="1h")
        self.age_past_ttl(store)
        readings = []
        for _ in range(3):
            store.put(1, make_rows(100, tenant_id=1))  # already past the TTL
            store.flush_all()
            assert store.catalog.tenant(1).blocks
            store.run_background_tasks()
            assert store.catalog.tenant(1).blocks == []
            readings.append(self.stalled(store))
        assert readings == [0] * 3
        active = {alert.name for alert in store.obs.alerts.active()}
        assert "lifecycle-sweeper-stalled" not in active

    def test_gauge_counts_ticks_since_the_last_sweep(self, store):
        self.age_past_ttl(store)
        readings = []
        for _ in range(4):
            store.run_background_tasks()
            readings.append(self.stalled(store))
        assert readings == [1, 2, 3, 4]

    def test_disabled_sweeper_trips_the_alert(self, store):
        self.age_past_ttl(store)
        for _ in range(4):
            store.run_background_tasks()
        active = {alert.name for alert in store.obs.alerts.active()}
        assert "lifecycle-sweeper-stalled" in active
        # Retention debt is real: candidates exist, nothing was swept.
        assert len(store.catalog.tenant(1).blocks) > 0
        admin = store.connect_admin(store.issue_admin_token())
        rows = admin.execute(
            "SELECT name, state FROM _system.alerts WHERE name = 'lifecycle-sweeper-stalled'"
        ).rows
        assert rows and rows[0]["state"] == "active"

    def test_healthy_sweeper_stays_quiet(self):
        store = LogStore.create(
            config=small_test_config(
                alert_rules=default_alert_rules() + (stalled_sweeper_rule(3),),
            )
        )
        store.register_tenant(1)
        store.put(1, make_rows(300, tenant_id=1))
        store.flush_all()
        store.set_retention(1, ttl="1h")
        target_s = BASE_TS / MICROS + 300 + 2 * 3_600
        store.clock.sleep(max(0.0, target_s - store.clock.now()))
        for _ in range(6):
            store.run_background_tasks()
        assert store.catalog.tenant(1).blocks == []  # swept for real
        active = {alert.name for alert in store.obs.alerts.active()}
        assert "lifecycle-sweeper-stalled" not in active

    def test_alert_resolves_after_manual_sweep(self, store):
        self.age_past_ttl(store)
        for _ in range(4):
            store.run_background_tasks()
        assert any(
            alert.name == "lifecycle-sweeper-stalled"
            for alert in store.obs.alerts.active()
        )
        # An operator runs the sweep by hand; the candidates drain and
        # the next evaluation resolves the alert.
        report = store.sweep_expired()
        assert report.blocks_expired > 0
        store.run_background_tasks()
        assert store.obs.registry.snapshot().gauge_value(SWEEP_STALLED_TICKS) == 0
        active = {alert.name for alert in store.obs.alerts.active()}
        assert "lifecycle-sweeper-stalled" not in active

    def test_fires_and_resolves_on_the_expected_ticks(self, store):
        """The rule stays silent while nothing has expired, fires at the
        first tick that finds expired blocks three or more ticks after
        the last sweep, and resolves on the tick after a sweep."""

        def active():
            return any(
                alert.name == "lifecycle-sweeper-stalled"
                for alert in store.obs.alerts.active()
            )

        states = []
        for _ in range(3):
            store.run_background_tasks()
            states.append(active())
        self.age_past_ttl(store)
        for _ in range(3):
            store.run_background_tasks()
            states.append(active())
        store.sweep_expired()
        store.run_background_tasks()
        states.append(active())
        assert states == [False] * 3 + [True] * 3 + [False]
        fired = store.obs.journal.events("alert.fire")
        assert [event.detail for event in fired] == ["lifecycle-sweeper-stalled value=4"]
