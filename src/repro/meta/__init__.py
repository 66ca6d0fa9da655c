"""Controller metadata: tenant catalog, LogBlock map, the janitor and backup."""

from repro.meta.backup import BackupReport, BackupTask
from repro.meta.catalog import Catalog, LogBlockEntry, TenantInfo
from repro.meta.janitor import Janitor
from repro.meta.persistence import (
    load_catalog_into,
    rebuild_catalog_from_store,
    save_catalog,
)

__all__ = [
    "BackupReport",
    "BackupTask",
    "Catalog",
    "Janitor",
    "LogBlockEntry",
    "TenantInfo",
    "load_catalog_into",
    "rebuild_catalog_from_store",
    "save_catalog",
]
