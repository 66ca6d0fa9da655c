"""EventJournal: determinism, bounded ring, rolling digest, trace correlation."""

import hashlib

import pytest

from repro.common.clock import VirtualClock
from repro.obs.events import EventJournal, JournalEvent
from repro.obs.tracing import Tracer


class TestEmit:
    def test_seq_monotonic_and_clock_stamped(self):
        clock = VirtualClock()
        journal = EventJournal(clock)
        first = journal.emit("shard.seal", "shard0", detail="rows=100")
        clock.advance(1.5)
        second = journal.emit("builder.archive", "memtable1", tenant_id=3)
        assert first.seq == 1 and second.seq == 2
        assert first.at_s == 0.0 and second.at_s == 1.5
        assert second.tenant_id == 3
        assert len(journal) == 2

    def test_no_clock_stamps_zero(self):
        journal = EventJournal()
        assert journal.emit("k", "t").at_s == 0.0

    def test_disabled_journal_drops(self):
        journal = EventJournal(enabled=False)
        assert journal.emit("k", "t") is None
        assert len(journal) == 0 and journal.total_emitted == 0

    def test_bounded_ring_keeps_newest_but_seq_keeps_counting(self):
        journal = EventJournal(max_events=3)
        for i in range(5):
            journal.emit("k", f"t{i}")
        assert len(journal) == 3
        assert journal.total_emitted == 5
        # Oldest fell off; surviving seqs reveal the truncation.
        assert [e.seq for e in journal.events()] == [3, 4, 5]
        assert [e.target for e in journal.events()] == ["t2", "t3", "t4"]

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            EventJournal(max_events=0)


class TestReads:
    def test_events_filtered_by_kind_and_kinds_summary(self):
        journal = EventJournal()
        journal.emit("a", "x")
        journal.emit("b", "y")
        journal.emit("a", "z")
        assert [e.target for e in journal.events("a")] == ["x", "z"]
        assert journal.kinds() == {"a": 2, "b": 1}

    def test_reads_see_only_the_retained_ring(self):
        journal = EventJournal(max_events=2)
        journal.emit("a", "x")
        journal.emit("b", "y")
        journal.emit("a", "z")
        assert journal.kinds() == {"a": 1, "b": 1}
        assert [e.target for e in journal.events("a")] == ["z"]
        assert journal.to_lines() == ["#2 t=0.000000000 b y", "#3 t=0.000000000 a z"]


class TestDump:
    def test_format_includes_optional_fields_only_when_set(self):
        event = JournalEvent(seq=7, at_s=1.25, kind="k", target="t")
        assert event.format() == "#7 t=1.250000000 k t"
        full = JournalEvent(
            seq=8, at_s=2.0, kind="k", target="t", detail="d", tenant_id=4, trace_id=9
        )
        assert full.format() == "#8 t=2.000000000 k t tenant=4 trace=9 d"

    def test_dump_and_digest_deterministic(self):
        def build():
            clock = VirtualClock()
            journal = EventJournal(clock)
            journal.emit("shard.seal", "shard0", detail="rows=10")
            clock.advance(0.5)
            journal.emit("builder.archive", "memtable0", tenant_id=1)
            return journal

        assert build().dump() == build().dump()
        assert build().digest() == build().digest()
        assert build().dump().endswith("\n")

    def test_empty_dump_is_empty_string(self):
        assert EventJournal().dump() == ""
        assert EventJournal().digest() == hashlib.sha256(b"").hexdigest()

    def test_different_events_have_different_digests(self):
        a, b = EventJournal(), EventJournal()
        a.emit("k", "x")
        b.emit("k", "y")
        assert a.digest() != b.digest()

    def test_digest_is_sha256_of_the_dump_while_nothing_dropped(self):
        journal = EventJournal(max_events=4)
        for i in range(4):
            journal.emit("k", f"t{i}", detail=f"n={i}", tenant_id=i)
            assert journal.digest() == hashlib.sha256(journal.dump().encode()).hexdigest()


class TestRollingDigest:
    def test_digest_covers_events_that_fell_off_the_ring(self):
        def build(first: str) -> EventJournal:
            journal = EventJournal(max_events=4)
            journal.emit("k", first)
            for i in range(4):
                journal.emit("k", f"t{i}")
            return journal

        a, b = build("a"), build("b")
        assert a.dump() == b.dump()  # the differing first events were dropped
        assert a.digest() != b.digest()
        assert a.total_emitted == b.total_emitted == 5
        assert len(a) == 4


class TestTraceCorrelation:
    def test_events_inherit_active_trace_id(self):
        tracer = Tracer(clock=VirtualClock())
        journal = EventJournal(tracer=tracer)
        journal.emit("outside", "x")
        with tracer.span("broker.query"):
            journal.emit("inside.root", "y")
            with tracer.span("broker.scan"):
                journal.emit("inside.child", "z")
        outside, root, child = journal.events()
        assert outside.trace_id is None
        assert root.trace_id is not None
        assert child.trace_id == root.trace_id
        assert journal.events_for_trace(root.trace_id) == [root, child]

    def test_distinct_root_spans_get_distinct_trace_ids(self):
        tracer = Tracer(clock=VirtualClock())
        journal = EventJournal(tracer=tracer)
        with tracer.span("q1"):
            journal.emit("k", "a")
        with tracer.span("q2"):
            journal.emit("k", "b")
        first, second = journal.events()
        assert first.trace_id != second.trace_id

    def test_attach_tracer_late_binding(self):
        journal = EventJournal()
        tracer = Tracer(clock=VirtualClock())
        journal.attach_tracer(tracer)
        with tracer.span("root"):
            assert journal.emit("k", "t").trace_id is not None

