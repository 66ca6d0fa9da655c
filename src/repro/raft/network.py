"""Simulated network for Raft replicas.

Delivers messages between registered nodes through the virtual clock
with a configurable base delay and jitter.  Supports dropped messages,
symmetric and one-directional partitions, and node crash/restart for
fault-injection tests.  Every change to that fault state calls each
registered node's fault callback: the stand-in for a node-liveness
service that wakes quiesced Raft groups.  Determinism: all randomness
comes from one seeded RNG, and delivery order for equal deadlines is
FIFO (the clock breaks ties by insertion order).
"""

from __future__ import annotations

import random
from typing import Callable, Protocol

from repro.common.clock import VirtualClock


class MessageHandler(Protocol):
    def __call__(self, source: str, message: object) -> None: ...


class SimNetwork:
    """In-process message bus with delay, loss and partition injection."""

    def __init__(
        self,
        clock: VirtualClock,
        base_delay_s: float = 0.001,
        jitter_s: float = 0.0005,
        drop_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        if base_delay_s < 0 or jitter_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= drop_probability <= 1:
            raise ValueError("drop_probability must be in [0, 1]")
        self._clock = clock
        self._base_delay = base_delay_s
        self._jitter = jitter_s
        self._drop_probability = drop_probability
        self._rng = random.Random(seed)
        self._handlers: dict[str, MessageHandler] = {}
        self._fault_callbacks: dict[str, Callable[[], None]] = {}
        self._partitions: set[frozenset[str]] = set()
        self._one_way_partitions: set[tuple[str, str]] = set()
        self._down: set[str] = set()
        # Incremented on every crash/restart; a message captured under an
        # old incarnation is dropped at delivery, so nothing sent to the
        # pre-crash process reaches the restarted one.
        self._incarnations: dict[str, int] = {}
        self.messages_sent = 0
        self.messages_dropped = 0

    def register(
        self, node_id: str, handler: MessageHandler, on_fault: Callable[[], None] | None = None
    ) -> None:
        """Deliver ``node_id``'s messages to ``handler``; call ``on_fault()``
        on every fault-state change from now on."""
        if node_id in self._handlers:
            raise ValueError(f"node already registered: {node_id}")
        self._handlers[node_id] = handler
        if on_fault is not None:
            self._fault_callbacks[node_id] = on_fault
        self._incarnations.setdefault(node_id, 0)
        self._faults_changed()

    def unregister(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)
        self._fault_callbacks.pop(node_id, None)
        self._faults_changed()

    def _faults_changed(self) -> None:
        for callback in list(self._fault_callbacks.values()):
            callback()

    # -- fault injection -----------------------------------------------------

    def partition(self, node_a: str, node_b: str) -> None:
        """Block traffic (both directions) between two nodes."""
        self._partitions.add(frozenset((node_a, node_b)))
        self._faults_changed()

    def partition_one_way(self, source: str, destination: str) -> None:
        """Block traffic from ``source`` to ``destination`` only.

        The reverse direction keeps flowing — the classic asymmetric
        failure where a node can hear the cluster but not be heard
        (or vice versa), which exercises different Raft paths than a
        clean symmetric cut.
        """
        self._one_way_partitions.add((source, destination))
        self._faults_changed()

    def heal(self, node_a: str, node_b: str) -> None:
        self._partitions.discard(frozenset((node_a, node_b)))
        self._one_way_partitions.discard((node_a, node_b))
        self._one_way_partitions.discard((node_b, node_a))
        self._faults_changed()

    def heal_one_way(self, source: str, destination: str) -> None:
        self._one_way_partitions.discard((source, destination))
        self._faults_changed()

    def heal_all(self) -> None:
        self._partitions.clear()
        self._one_way_partitions.clear()
        self._faults_changed()

    def isolate(self, node_id: str) -> None:
        """Partition a node from every other registered node."""
        for other in self._handlers:
            if other != node_id:
                self.partition(node_id, other)

    def crash(self, node_id: str) -> None:
        """Mark a node dead: it neither sends nor receives.

        Messages already in flight toward it are dropped at delivery
        time (they were addressed to the dead process), and messages it
        queued before crashing still arrive — they were already on the
        wire.  Restart bumps the incarnation, so even a message that
        would be delivered after :meth:`restart` is discarded rather
        than handed to the new process.
        """
        self._down.add(node_id)
        self._incarnations[node_id] = self._incarnations.get(node_id, 0) + 1
        self._faults_changed()

    def restart(self, node_id: str) -> None:
        """Bring a crashed node back; stale in-flight messages stay dead."""
        self._down.discard(node_id)
        self._incarnations[node_id] = self._incarnations.get(node_id, 0) + 1
        self._faults_changed()

    def set_drop_probability(self, probability: float) -> None:
        if not 0 <= probability <= 1:
            raise ValueError("drop_probability must be in [0, 1]")
        self._drop_probability = probability
        self._faults_changed()

    # -- sending ---------------------------------------------------------

    def _blocked(self, source: str, destination: str) -> bool:
        if frozenset((source, destination)) in self._partitions:
            return True
        return (source, destination) in self._one_way_partitions

    def send(self, source: str, destination: str, message: object) -> None:
        """Queue a message for delayed delivery (may be dropped)."""
        self.messages_sent += 1
        if source in self._down or destination in self._down:
            self.messages_dropped += 1
            return
        if self._blocked(source, destination):
            self.messages_dropped += 1
            return
        if self._drop_probability and self._rng.random() < self._drop_probability:
            self.messages_dropped += 1
            return
        delay = self._base_delay + self._rng.random() * self._jitter
        incarnation = self._incarnations.get(destination, 0)
        self._clock.call_later(
            delay, lambda: self._deliver(source, destination, message, incarnation)
        )

    def _deliver(
        self, source: str, destination: str, message: object, incarnation: int = -1
    ) -> None:
        # Re-check faults at delivery time: a partition or crash that
        # happened while the message was in flight swallows it, like a
        # real cut link.  An incarnation mismatch means the destination
        # crashed (and maybe restarted) since the send — the message was
        # addressed to a process that no longer exists.
        if self._blocked(source, destination) or destination in self._down:
            self.messages_dropped += 1
            return
        if incarnation >= 0 and incarnation != self._incarnations.get(destination, 0):
            self.messages_dropped += 1
            return
        handler = self._handlers.get(destination)
        if handler is not None:
            handler(source, message)
