"""Per-tenant usage metering.

The registry already counts most of what a tenant does, but scattered
across families with mixed label sets (shard rows here, broker rows
there, OSS bytes globally).  `UsageMeter` is the single per-tenant
accounting surface ROADMAP items 2 (elastic scaling) and 5 (retention /
billing) need: every family below is labeled ``tenant=<id>`` and only
``tenant=<id>``, so a tenant's bill is one ``by_label`` read.

CPU cost is a unit-less work proxy, not seconds: rows whose predicate
was evaluated plus blocks visited, the two quantities the executor
already charges virtual time for.  It ranks tenants by scan work
without pretending to be a cycle counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry

METER_BYTES_INGESTED = "logstore_tenant_bytes_ingested_total"
METER_BYTES_SCANNED = "logstore_tenant_bytes_scanned_total"
METER_OSS_GETS = "logstore_tenant_oss_gets_total"
METER_ROWS_INGESTED = "logstore_tenant_rows_ingested_total"
METER_ROWS_RETURNED = "logstore_tenant_rows_returned_total"
METER_CPU_COST = "logstore_tenant_cpu_cost_units_total"

_FAMILIES = (
    (METER_BYTES_INGESTED, "Payload bytes ingested per tenant."),
    (METER_BYTES_SCANNED, "Bytes fetched from storage to answer a tenant's queries."),
    (METER_OSS_GETS, "Object-store GET requests issued for a tenant's queries."),
    (METER_ROWS_INGESTED, "Rows ingested per tenant."),
    (METER_ROWS_RETURNED, "Rows returned to a tenant by queries."),
    (METER_CPU_COST, "Unit-less scan-work proxy: rows evaluated + blocks visited."),
)


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
        self._tenants: dict[int, dict] = {}

    def _family(self, tenant_id: int) -> dict:
        counters = self._tenants.get(tenant_id)
        if counters is None:
            counters = {
                name: self._registry.counter(name, help_text, tenant=tenant_id)
                for name, help_text in _FAMILIES
            }
            self._tenants[tenant_id] = counters
        return counters

    def record_ingest(self, tenant_id: int, rows: int, nbytes: int) -> None:
        counters = self._family(tenant_id)
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
        counters = self._family(tenant_id)
        if rows_returned:
            counters[METER_ROWS_RETURNED].add(rows_returned)
        if bytes_scanned:
            counters[METER_BYTES_SCANNED].add(bytes_scanned)
        if oss_gets:
            counters[METER_OSS_GETS].add(oss_gets)
        if cpu_cost:
            counters[METER_CPU_COST].add(cpu_cost)

    def usage(self, tenant_id: int) -> TenantUsage:
        counters = self._tenants.get(tenant_id)
        if counters is None:
            return TenantUsage(tenant_id=tenant_id)
        return TenantUsage(
            tenant_id=tenant_id,
            bytes_ingested=int(counters[METER_BYTES_INGESTED].value),
            bytes_scanned=int(counters[METER_BYTES_SCANNED].value),
            oss_gets=int(counters[METER_OSS_GETS].value),
            rows_ingested=int(counters[METER_ROWS_INGESTED].value),
            rows_returned=int(counters[METER_ROWS_RETURNED].value),
            cpu_cost_units=float(counters[METER_CPU_COST].value),
        )

    def tenants(self) -> list[int]:
        return sorted(self._tenants)

    def all_usage(self) -> list[TenantUsage]:
        return [self.usage(tenant_id) for tenant_id in self.tenants()]
