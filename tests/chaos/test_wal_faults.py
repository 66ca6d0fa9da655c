"""FaultySegmentBackend: failed/torn appends, tail corruption, recovery,
and journal recording."""

from __future__ import annotations

import pytest

from repro.chaos.wal_faults import FaultySegmentBackend
from repro.common.errors import WalError
from repro.obs.events import EventJournal
from repro.wal.log import WriteAheadLog


def test_fail_next_append_persists_nothing():
    backend = FaultySegmentBackend("w")
    backend.append(0, b"first")
    backend.fail_next_appends(1)
    with pytest.raises(WalError):
        backend.append(0, b"second")
    assert backend.read(0) == b"first"
    assert backend.appends_failed == 1
    backend.append(0, b"third")
    assert backend.read(0) == b"firstthird"


def test_torn_append_persists_prefix_then_raises():
    backend = FaultySegmentBackend("w")
    backend.tear_next_appends(1, 0.5)
    with pytest.raises(WalError):
        backend.append(0, b"0123456789")
    assert backend.read(0) == b"01234"
    assert backend.appends_torn == 1


def test_corrupt_tail_flips_a_byte():
    backend = FaultySegmentBackend("w")
    backend.append(0, b"abc")
    assert backend.corrupt_tail()
    assert backend.read(0) == b"ab" + bytes([ord("c") ^ 0xFF])


def test_corrupt_tail_with_no_segments_is_a_noop():
    backend = FaultySegmentBackend("w")
    assert backend.corrupt_tail() is False


def test_wal_over_torn_backend_recovers_valid_prefix():
    backend = FaultySegmentBackend("w")
    wal = WriteAheadLog(backend)
    wal.append(1, b"alpha")
    wal.append(1, b"beta")
    backend.tear_next_appends(1, 0.5)
    with pytest.raises(WalError):
        wal.append(1, b"gamma")
    # Re-open (process restart): repair cuts the torn tail.
    recovered = WriteAheadLog(backend)
    bodies = [e.body for e in recovered.replay()]
    assert bodies == [b"alpha", b"beta"]
    assert recovered.torn_tail_bytes_discarded > 0


def test_wal_over_corrupted_tail_recovers_valid_prefix():
    backend = FaultySegmentBackend("w")
    wal = WriteAheadLog(backend)
    wal.append(1, b"alpha")
    wal.append(1, b"beta")
    backend.corrupt_tail()
    recovered = WriteAheadLog(backend)
    bodies = [e.body for e in recovered.replay()]
    assert bodies == [b"alpha"]


def test_heal_clears_armed_faults():
    backend = FaultySegmentBackend("w")
    backend.fail_next_appends(3)
    backend.tear_next_appends(3)
    backend.heal()
    backend.append(0, b"fine")
    assert backend.read(0) == b"fine"


def test_faults_are_emitted_to_an_attached_journal():
    backend = FaultySegmentBackend("w")
    backend.fail_next_appends(1)  # before attaching: not recorded anywhere
    journal = EventJournal()
    backend.attach_journal(journal)
    with pytest.raises(WalError):
        backend.append(0, b"lost")
    backend.tear_next_appends(1, 0.5)
    with pytest.raises(WalError):
        backend.append(0, b"0123")
    backend.heal()
    assert [(e.kind, e.target, e.detail) for e in journal.events()] == [
        ("chaos.fault.wal.append_failed", "w", "segment=0 bytes=4"),
        ("chaos.fault.wal.tear_arm", "w", "count=1 fraction=0.5"),
        ("chaos.fault.wal.append_torn", "w", "segment=0 kept=2/4"),
        ("chaos.fault.wal.heal", "w", ""),
    ]
