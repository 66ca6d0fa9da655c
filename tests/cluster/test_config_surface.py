"""The configuration surface is counted, so growing it is a decision.

ROADMAP aim 2 ("the same behaviour and the same numbers from the
simplest design and the least code") counts every independently settable
value: each field here doubles the configurations tests and benchmarks
must cover.  A PR that needs a new knob raises the number in the same
diff and says why a constant, or a value derived from the input, would
not do; a PR that retires a field lowers it.
"""

from dataclasses import fields

from repro.cluster.config import LogStoreConfig
from repro.query.executor import ExecutionOptions

HINT = (
    "the config surface changed: see ROADMAP.md aim 2 (quality of design) — "
    "justify a new knob or record the retirement by updating this number in the same PR"
)


def test_logstore_config_field_count():
    assert len(fields(LogStoreConfig)) == 37, HINT


def test_execution_options_field_count():
    assert len(fields(ExecutionOptions)) == 5, HINT
