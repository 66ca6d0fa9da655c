"""Simulated cloud object storage (OSS) with a pluggable cost model."""

from repro.oss.costmodel import OssCostModel, free, local_ssd, oss_default
from repro.oss.metered import MeteredObjectStore, OssStats
from repro.oss.retry import RetryingObjectStore
from repro.oss.store import (
    InMemoryObjectStore,
    LocalFsObjectStore,
    ObjectStat,
    ObjectStore,
    copy_object,
    copy_prefix,
)

__all__ = [
    "OssCostModel",
    "free",
    "local_ssd",
    "oss_default",
    "MeteredObjectStore",
    "OssStats",
    "RetryingObjectStore",
    "InMemoryObjectStore",
    "LocalFsObjectStore",
    "ObjectStat",
    "ObjectStore",
    "copy_object",
    "copy_prefix",
]
