"""Invariant checks of a cluster against an oracle's row keys.

After a fault schedule heals, these checks assert the promises LogStore
makes to clients and to itself:

* **durability / read-your-writes** — every acknowledged row is
  readable, exactly once.  Rows from indeterminate writes (the write
  call raised) may appear at most once.  No phantom rows exist that no
  client ever submitted.
* **replica consistency** — full replicas that have applied the same
  log prefix hold byte-identical row-store state.
* **catalog/OSS agreement** — every catalog LogBlock entry points at an
  existing object, no two entries share a path, and no ``.lgb`` object
  exists on OSS that the catalog (or the janitor's orphan queue
  awaiting a sweep) does not account for.
* **lifecycle** — retention converged and offboarded tenants left no
  residue.

Rows are identified by ``key_columns`` (``("log",)`` by default, or e.g.
``("run_id", "version")`` for a versioned table).  The caller's oracle
supplies each tenant's acked keys (a key acked twice is listed twice),
its indeterminate keys, and the acked rows' timestamps, which tell
retention-expired rows (allowed to be gone) from lost ones.

Checks are read-only: they query through the normal broker path and
inspect metadata, so a passing run proves the *user-visible* system,
not internal bookkeeping.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro.common.errors import ClusterError, InvariantViolationError


@dataclass(frozen=True)
class InvariantViolation:
    """One broken promise, with enough detail to debug the run."""

    invariant: str
    target: str
    detail: str

    def format(self) -> str:
        return f"[{self.invariant}] {self.target}: {self.detail}"


class InvariantChecker:
    """Checks a cluster against an oracle's acked and indeterminate keys."""

    def __init__(
        self,
        store,
        acked: dict[int, Iterable[str]],
        indeterminate: dict[int, Iterable[str]] | None = None,
        acked_ts: dict[int, dict[str, int]] | None = None,
        key_columns: tuple[str, ...] = ("log",),
        table: str | None = None,
        expiry_cutoffs: dict[int, int] | None = None,
        offboarded: set[int] | None = None,
    ) -> None:
        self._store = store
        self._acked = {tenant: Counter(keys) for tenant, keys in acked.items()}
        self._indeterminate = {
            tenant: set(keys) for tenant, keys in (indeterminate or {}).items()
        }
        self._acked_ts = acked_ts or {}
        self.key_columns = key_columns
        # Probe the table the workload actually wrote.
        self._table = table if table is not None else store.catalog.schema.name
        # Lifecycle context: acked rows older than a tenant's recorded
        # expiry cutoff are *allowed* to be gone; offboarded tenants
        # must be gone entirely (checked in check_lifecycle, excluded
        # from durability).
        self._expiry_cutoffs = expiry_cutoffs or {}
        self._offboarded = offboarded or set()

    def row_key(self, row: dict) -> str:
        return "@".join(str(row[column]) for column in self.key_columns)

    # -- individual checks ----------------------------------------------

    def check_durability(self) -> list[InvariantViolation]:
        """Acked rows appear exactly once; indeterminate at most once.

        Lifecycle carve-outs: offboarded tenants are checked for
        *absence* in check_lifecycle instead, and acked rows whose
        timestamp predates the tenant's expiry cutoff may legitimately
        be gone (block-level retention) — but never duplicated.
        """
        violations: list[InvariantViolation] = []
        select = ", ".join(self.key_columns)
        for tenant_id in sorted(set(self._acked) | set(self._indeterminate)):
            if tenant_id in self._offboarded:
                continue
            result = self._store.query(
                f"SELECT {select} FROM {self._table} WHERE tenant_id = {tenant_id}"
            )
            observed = Counter(self.row_key(row) for row in result.rows)
            acked = self._acked.get(tenant_id, Counter())
            indeterminate = self._indeterminate.get(tenant_id, set())
            target = f"tenant:{tenant_id}"
            cutoff = self._expiry_cutoffs.get(tenant_id)
            acked_ts = self._acked_ts.get(tenant_id, {})

            def expirable(key: str) -> bool:
                if cutoff is None:
                    return False
                ts = acked_ts.get(key)
                return ts is not None and ts < cutoff

            lost = [
                key for key in acked if observed[key] == 0 and not expirable(key)
            ]
            if lost:
                violations.append(
                    InvariantViolation(
                        "no_acked_write_lost",
                        target,
                        f"{len(lost)} acked rows missing, first: {lost[0]!r}",
                    )
                )
            duplicated = [key for key, count in observed.items() if count > 1]
            if duplicated:
                violations.append(
                    InvariantViolation(
                        "no_duplicate_rows",
                        target,
                        f"{len(duplicated)} rows visible more than once, "
                        f"first: {duplicated[0]!r} x{observed[duplicated[0]]}",
                    )
                )
            phantoms = [
                key for key in observed if key not in acked and key not in indeterminate
            ]
            if phantoms:
                violations.append(
                    InvariantViolation(
                        "no_phantom_rows",
                        target,
                        f"{len(phantoms)} rows no client submitted, "
                        f"first: {phantoms[0]!r}",
                    )
                )
        return violations

    def check_replica_consistency(self) -> list[InvariantViolation]:
        """Caught-up full replicas hold byte-identical stores."""
        violations: list[InvariantViolation] = []
        for worker in self._store.workers.values():
            for shard in worker.shards.values():
                try:
                    shard.verify_raft_consistency()
                except ClusterError as exc:
                    violations.append(
                        InvariantViolation(
                            "replicas_byte_identical", f"shard:{shard.shard_id}", str(exc)
                        )
                    )
        return violations

    def check_catalog_oss_agreement(self) -> list[InvariantViolation]:
        """The LogBlock map and the bucket tell the same story."""
        violations: list[InvariantViolation] = []
        bucket = self._store.config.bucket
        entries = self._store.catalog.all_blocks()
        paths = Counter(entry.path for entry in entries)
        duplicates = [path for path, count in paths.items() if count > 1]
        if duplicates:
            violations.append(
                InvariantViolation(
                    "no_duplicate_blocks",
                    "catalog",
                    f"{len(duplicates)} paths registered twice, first: {duplicates[0]}",
                )
            )
        # A hot entry's backing object is its path; a cold entry's is
        # the tar-packed segment it lives in (shared with siblings).
        object_paths = {entry.object_path for entry in entries}
        stored = {
            stat.key
            for stat in self._store.oss.list(bucket, "tenants/")
            if stat.key.endswith((".lgb", ".seg"))
        }
        dangling = sorted(object_paths - stored)
        if dangling:
            violations.append(
                InvariantViolation(
                    "no_dangling_blocks",
                    "catalog",
                    f"{len(dangling)} catalog entries without an object, "
                    f"first: {dangling[0]}",
                )
            )
        # Orphans still queued for a sweep are accounted for, not leaked.
        unaccounted = sorted(stored - object_paths - set(self._store.janitor.orphans))
        if unaccounted:
            violations.append(
                InvariantViolation(
                    "no_orphan_objects",
                    "oss",
                    f"{len(unaccounted)} objects not in the catalog, "
                    f"first: {unaccounted[0]}",
                )
            )
        return violations

    def check_lifecycle(self) -> list[InvariantViolation]:
        """Retention converged and offboarding left zero residue.

        * **expiry_converged** — after healing, no catalog block whose
          ``max_ts`` predates the tenant's recorded cutoff remains:
          every crash-interrupted sweep finished exactly once on replay.
        * **offboard_zero_residue** — an offboarded tenant has nothing
          left in the catalog, nothing under its OSS prefix, and a live
          query returns zero rows.
        """
        violations: list[InvariantViolation] = []
        from repro.common.errors import TenantNotFound

        catalog = self._store.catalog
        for tenant_id in sorted(self._expiry_cutoffs):
            cutoff = self._expiry_cutoffs[tenant_id]
            try:
                info = catalog.tenant(tenant_id)
            except TenantNotFound:
                continue
            leftovers = [b for b in info.blocks if b.max_ts < cutoff]
            if leftovers:
                violations.append(
                    InvariantViolation(
                        "expiry_converged",
                        f"tenant:{tenant_id}",
                        f"{len(leftovers)} expired blocks survived healing, "
                        f"first: {leftovers[0].path}",
                    )
                )
        lifecycle = getattr(self._store, "lifecycle", None)
        for tenant_id in sorted(self._offboarded):
            residue = (
                lifecycle.offboarder.verify_residue(tenant_id)
                if lifecycle is not None
                else []
            )
            if residue:
                violations.append(
                    InvariantViolation(
                        "offboard_zero_residue",
                        f"tenant:{tenant_id}",
                        f"{len(residue)} leftovers, first: {residue[0]}",
                    )
                )
            result = self._store.query(
                f"SELECT COUNT(*) FROM {self._table} WHERE tenant_id = {tenant_id}"
            )
            remaining = int(result.rows[0]["COUNT(*)"]) if result.rows else 0
            if remaining:
                violations.append(
                    InvariantViolation(
                        "offboard_zero_rows",
                        f"tenant:{tenant_id}",
                        f"query still returns {remaining} rows",
                    )
                )
        return violations

    # -- aggregation -----------------------------------------------------

    def check_all(self) -> list[InvariantViolation]:
        violations = (
            self.check_durability()
            + self.check_replica_consistency()
            + self.check_catalog_oss_agreement()
            + self.check_lifecycle()
        )
        journal = self._store.obs.journal
        for violation in violations:
            journal.emit(
                "chaos.invariant.violated",
                violation.target,
                detail=f"{violation.invariant}: {violation.detail}",
            )
        if not violations:
            journal.emit("chaos.invariant.ok", "cluster")
        return violations

    def assert_ok(self) -> None:
        violations = self.check_all()
        if violations:
            lines = "\n".join(violation.format() for violation in violations)
            raise InvariantViolationError(
                f"{len(violations)} invariant violation(s):\n{lines}"
            )
