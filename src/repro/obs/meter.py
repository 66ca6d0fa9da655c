"""Per-tenant usage metering: the one tenant account.

`UsageMeter` is the only per-tenant counter surface: every family below
is labeled ``tenant=<id>`` and only ``tenant=<id>``, so a tenant's bill
is one ``by_label`` read.  The hotspot monitor windows the
rows-ingested children (§4.1.3's tenant traffic f(Ki)),
`MetricsReport` sums them, and ``_system.tenants`` lists them.

A write is counted once, after the broker dispatched it; a query once,
after it returned, and only when it was scoped to one tenant.  A
tenant's ingest children appear at its first write and its query
children at its first query.

CPU cost is a unit-less work proxy, not seconds: rows whose predicate
was evaluated plus blocks visited, the two quantities the executor
already charges virtual time for.  It ranks tenants by scan work
without pretending to be a cycle counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import Counter, MetricsRegistry

METER_BYTES_INGESTED = "logstore_tenant_bytes_ingested_total"
METER_BYTES_SCANNED = "logstore_tenant_bytes_scanned_total"
METER_OSS_GETS = "logstore_tenant_oss_gets_total"
METER_ROWS_INGESTED = "logstore_tenant_rows_ingested_total"
METER_ROWS_RETURNED = "logstore_tenant_rows_returned_total"
METER_CPU_COST = "logstore_tenant_cpu_cost_units_total"

_HELP = {
    METER_BYTES_INGESTED: "Payload bytes ingested per tenant.",
    METER_BYTES_SCANNED: "Bytes fetched from storage to answer a tenant's queries.",
    METER_OSS_GETS: "Object-store GET requests issued for a tenant's queries.",
    METER_ROWS_INGESTED: "Rows ingested per tenant.",
    METER_ROWS_RETURNED: "Rows returned to a tenant by queries.",
    METER_CPU_COST: "Unit-less scan-work proxy: rows evaluated + blocks visited.",
}
_INGEST = (METER_ROWS_INGESTED, METER_BYTES_INGESTED)
_QUERY = (METER_ROWS_RETURNED, METER_BYTES_SCANNED, METER_OSS_GETS, METER_CPU_COST)


@dataclass(frozen=True)
class TenantUsage:
    """One tenant's cumulative usage, frozen at read time."""

    tenant_id: int
    bytes_ingested: int = 0
    bytes_scanned: int = 0
    oss_gets: int = 0
    rows_ingested: int = 0
    rows_returned: int = 0
    cpu_cost_units: float = 0.0


class UsageMeter:
    """Tenant-labeled counter families over a shared registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        # tenant -> dict[family name -> Counter]
        self._tenants: dict[int, dict[str, Counter]] = {}

    def _counters(self, tenant_id: int, families: tuple[str, ...]) -> dict:
        counters = self._tenants.get(tenant_id)
        if counters is None:
            counters = self._tenants[tenant_id] = {}
        if families[0] not in counters:
            for name in families:
                counters[name] = self._registry.counter(
                    name, _HELP[name], tenant=tenant_id
                )
        return counters

    def record_ingest(self, tenant_id: int, rows: int, nbytes: int) -> None:
        counters = self._counters(tenant_id, _INGEST)
        if rows:
            counters[METER_ROWS_INGESTED].add(rows)
        if nbytes:
            counters[METER_BYTES_INGESTED].add(nbytes)

    def record_query(
        self,
        tenant_id: int,
        rows_returned: int = 0,
        bytes_scanned: int = 0,
        oss_gets: int = 0,
        cpu_cost: float = 0.0,
    ) -> None:
        counters = self._counters(tenant_id, _QUERY)
        if rows_returned:
            counters[METER_ROWS_RETURNED].add(rows_returned)
        if bytes_scanned:
            counters[METER_BYTES_SCANNED].add(bytes_scanned)
        if oss_gets:
            counters[METER_OSS_GETS].add(oss_gets)
        if cpu_cost:
            counters[METER_CPU_COST].add(cpu_cost)

    def rows_ingested(self) -> dict[int, Counter]:
        """The live rows-ingested child of every tenant that wrote."""
        return {
            tenant_id: counters[METER_ROWS_INGESTED]
            for tenant_id, counters in self._tenants.items()
            if METER_ROWS_INGESTED in counters
        }

    def usage(self, tenant_id: int) -> TenantUsage:
        counters = self._tenants.get(tenant_id, {})

        def value(name: str) -> float:
            counter = counters.get(name)
            return counter.value if counter is not None else 0

        return TenantUsage(
            tenant_id=tenant_id,
            bytes_ingested=int(value(METER_BYTES_INGESTED)),
            bytes_scanned=int(value(METER_BYTES_SCANNED)),
            oss_gets=int(value(METER_OSS_GETS)),
            rows_ingested=int(value(METER_ROWS_INGESTED)),
            rows_returned=int(value(METER_ROWS_RETURNED)),
            cpu_cost_units=float(value(METER_CPU_COST)),
        )

    def tenants(self) -> list[int]:
        return sorted(self._tenants)

    def all_usage(self) -> list[TenantUsage]:
        return [self.usage(tenant_id) for tenant_id in self.tenants()]
