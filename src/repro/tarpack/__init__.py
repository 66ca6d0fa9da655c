"""Tar-with-manifest packaging for LogBlock files (§3 of the paper)."""

from repro.tarpack.manifest import Manifest
from repro.tarpack.packer import PackBuilder, pack_members
from repro.tarpack.reader import PackReader

__all__ = ["Manifest", "PackBuilder", "pack_members", "PackReader"]
