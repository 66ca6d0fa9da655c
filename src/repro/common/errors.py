"""Exception hierarchy for the LogStore reproduction.

Every error raised by this package derives from :class:`LogStoreError`, so
callers can catch one base class at API boundaries.  Subsystems define
narrower classes here (rather than locally) so that cross-module code can
depend on them without import cycles.
"""

from __future__ import annotations


class LogStoreError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(LogStoreError):
    """An invalid configuration value was supplied."""


class SchemaError(LogStoreError):
    """A table schema is malformed or a row does not match its schema."""


class CodecError(LogStoreError):
    """An unknown compression codec was requested or (de)compression failed."""


class SerializationError(LogStoreError):
    """A binary structure could not be encoded or decoded."""


class CorruptionError(SerializationError):
    """Stored bytes fail a checksum or structural validation."""


class ObjectStoreError(LogStoreError):
    """Base class for simulated cloud object storage errors."""


class NoSuchKey(ObjectStoreError):
    """The requested object key does not exist in the bucket."""


class NoSuchBucket(ObjectStoreError):
    """The requested bucket does not exist."""


class ObjectAlreadyExists(ObjectStoreError):
    """An immutable object would be overwritten."""


class InvalidRange(ObjectStoreError):
    """A ranged read asked for bytes outside the object."""


class TransientStoreError(ObjectStoreError):
    """A retryable object-store failure (5xx, throttle, connection reset)."""


class WalError(LogStoreError):
    """Write-ahead-log failure (corrupt record, bad sequence, ...)."""


class RaftError(LogStoreError):
    """Raft protocol violation or unusable state."""


class NotLeaderError(RaftError):
    """A write was submitted to a replica that is not the leader.

    Carries the id of the current leader when known so routers can retry.
    """

    def __init__(self, message: str, leader_id: str | None = None) -> None:
        super().__init__(message)
        self.leader_id = leader_id


class BackpressureError(LogStoreError):
    """A bounded queue rejected work because backpressure flow control fired."""


class RowStoreError(LogStoreError):
    """Row store failure (sealed segment mutation, bad scan range, ...)."""


class InvalidBatchError(RowStoreError, ValueError):
    """A write batch was rejected whole at admission: a row lacks the
    timestamp or tenant column, or belongs to another tenant."""


class BuildError(LogStoreError):
    """Data-builder failure (unsealed memtable, bad build parameters)."""


class CatalogError(LogStoreError):
    """Metadata catalog failure (unknown tenant, conflicting registration)."""


class TenantNotFound(CatalogError):
    """The named tenant is not registered in the catalog."""


class QueryError(LogStoreError):
    """Query planning or execution failure."""


class SqlParseError(QueryError):
    """The SQL text could not be parsed by the minimal dialect.

    ``position`` is the character offset into the statement where the
    parser gave up (``None`` when no offset applies, e.g. truncated
    input); the message embeds a caret-context snippet pointing at it.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class AuthError(QueryError):
    """A statement was rejected by tenant authentication/authorization.

    Raised when a session presents a bad token, or when a statement
    scoped to one tenant tries to touch another tenant's data.
    """


class FlowError(LogStoreError):
    """Traffic-control failure (infeasible balance plan, bad graph)."""


class CapacityExceeded(FlowError):
    """Aggregate demand exceeds cluster capacity even after scaling."""


class ClusterError(LogStoreError):
    """Cluster wiring or lifecycle failure."""


class ShardNotFound(ClusterError):
    """The routing table referenced a shard that does not exist."""


class WorkerNotFound(ClusterError):
    """A shard placement referenced a worker that does not exist."""


class InvariantViolationError(LogStoreError):
    """An invariant check of a cluster against its oracle found violations."""


class LifecycleError(LogStoreError):
    """Data-lifecycle failure (retention policy, expiry, offboarding)."""
