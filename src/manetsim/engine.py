"""Deterministic discrete-event scheduler with labelled random streams."""

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

# Scheduling clamps a time at most this far behind the clock (float error in
# a computed deadline) to the clock, and refuses anything earlier. It never
# merges events: two events 1e-12 apart still run in time order.
TIME_EPSILON = 1e-9


class SimulationError(Exception):
    """Hard fault: indicates a simulator bug, aborts the run."""


class EventKind(Enum):
    """What a scheduled callback is for; callers name it, the engine stores
    nothing of it."""

    FRAME_DELIVERY = "frame"
    TIMER = "timer"
    TRAFFIC_TICK = "traffic"
    MOBILITY_WAYPOINT = "waypoint"


# A pending event is its heap entry [time, seq, fn], which is also the handle
# schedule() returns: ``fn`` runs when the clock reaches ``time``, and cancel()
# sets it to None. seq is unique, so two entries never compare their ``fn``.
Handle = list


class Engine:
    """Virtual-clock event loop.

    Events are processed in strictly non-decreasing time order; ties are
    broken FIFO by insertion counter, so a run is fully reproducible.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[Handle] = []
        self._counter = 0
        self.processed = 0

    def schedule(self, time: float, kind: EventKind, fn: Callable[[], None]) -> Handle:
        """Enqueue work at ``time``; returns a handle usable with cancel()."""
        seq = self._counter
        self._counter = seq + 1
        return self._push(time, seq, fn)

    def reserve(self, count: int) -> int:
        """Take ``count`` insertion numbers now for events pushed later with
        schedule_reserved(); returns the first. A reserved event breaks
        time ties as if it had been scheduled at the reservation."""
        base = self._counter
        self._counter = base + count
        return base

    def schedule_reserved(
        self, time: float, seq: int, kind: EventKind, fn: Callable[[], None]
    ) -> Handle:
        """Enqueue work at ``time`` under a number taken with reserve()."""
        return self._push(time, seq, fn)

    def _push(self, time: float, seq: int, fn: Callable[[], None]) -> Handle:
        if time < self.now:
            if self.now - time <= TIME_EPSILON:
                time = self.now
            else:
                raise SimulationError(
                    f"scheduled event at t={time} in the past (clock={self.now})"
                )
        entry = [time, seq, fn]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: Handle) -> None:
        """Keep a pending event from running; a no-op once it has run."""
        handle[2] = None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    def run_until(self, t_end: float) -> int:
        """Process every event with time <= t_end; clock finishes at t_end."""
        if t_end < self.now:
            raise SimulationError(f"run_until({t_end}) behind clock {self.now}")
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            time, _, fn = heappop(heap)
            if fn is None:
                continue
            self.now = time
            fn()
            processed += 1
        self.now = t_end
        self.processed += processed
        return processed


class RngStream(random.Random):
    """Pseudo-random stream derived from (master seed, label).

    Equal (seed, label) pairs reproduce the exact same sequence; distinct
    labels give independent streams, so subsystems can be added without
    perturbing each other's draws.
    """

    def __new__(cls, master_seed: int, label: str):
        return super().__new__(cls)

    def __init__(self, master_seed: int, label: str):
        digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self.label = label


@dataclass(slots=True)
class StreamFactory:
    """Hands out labelled RngStreams off one master seed."""

    master_seed: int
    _cache: dict = field(default_factory=dict)

    def stream(self, label: str) -> RngStream:
        if label not in self._cache:
            self._cache[label] = RngStream(self.master_seed, label)
        return self._cache[label]
