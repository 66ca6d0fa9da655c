"""Operational tooling: the LogBlock inspection CLI (``python -m repro.tools.inspect``)."""
