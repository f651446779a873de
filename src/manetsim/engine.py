"""Deterministic discrete-event scheduler with labelled random streams."""

import gc
import hashlib
import random
from bisect import bisect_left
from heapq import heappop, heappush
from operator import itemgetter, length_hint
from typing import Callable, Iterator

# Scheduling clamps a time at most this far behind the clock (float error in
# a computed deadline) to the clock, and refuses anything earlier or NaN. It
# never merges events: two events 1e-12 apart are two instants, run in time
# order.
TIME_EPSILON = 1e-9


class SimulationError(Exception):
    """Hard fault: indicates a simulator bug, aborts the run."""


class EventKind:
    """What a scheduled callback is for; callers name it, the engine stores
    nothing of it. Plain string constants, not an Enum: every schedule call
    reads one, and a class attribute is the cheaper read."""

    FRAME_DELIVERY = "frame"
    TIMER = "timer"
    TRAFFIC_TICK = "traffic"


# A pending event is its entry [time, seq, fn] in its instant's list, which is
# also the handle schedule() returns: ``fn`` runs when the clock reaches
# ``time``, and cancel() sets it to None.
Handle = list

_SEQ = itemgetter(1)


class Engine:
    """Virtual-clock event loop.

    Events are processed in strictly non-decreasing time order; ties are
    broken FIFO by insertion counter, so a run is fully reproducible.

    Pending events are kept per instant: a heap holds each distinct pending
    time once, and ``_pending`` maps it to its entries in insertion-number
    order. Most events share their instant with others (hello ticks on whole
    seconds, their deliveries one airtime later), so the heap stays small and
    an instant's events run from a plain list.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._times: list[float] = []
        self._pending: dict[float, list[Handle]] = {}
        # the instant being run and the iterator over it: the entries before
        # the iterator's position have run
        self._running: tuple[list[Handle], Iterator[Handle]] | tuple[()] = ()
        self._counter = 0
        self.processed = 0

    def schedule(self, time: float, kind: str, fn: Callable[[], None]) -> Handle:
        """Enqueue work at ``time``; returns a handle usable with cancel()."""
        seq = self._counter
        self._counter = seq + 1
        if not time >= self.now:  # behind the clock, or NaN
            return self.schedule_reserved(time, seq, kind, fn)
        # a fresh number is above every pending one, so it goes last
        entry = [time, seq, fn]
        entries = self._pending.get(time)
        if entries is None:
            self._pending[time] = [entry]
            heappush(self._times, time)
        else:
            entries.append(entry)
        return entry

    def reserve(self, count: int) -> int:
        """Take ``count`` insertion numbers now for events pushed later with
        schedule_reserved(); returns the first. A reserved event breaks
        time ties as if it had been scheduled at the reservation."""
        base = self._counter
        self._counter = base + count
        return base

    def schedule_reserved(
        self, time: float, seq: int, kind: str, fn: Callable[[], None]
    ) -> Handle:
        """Enqueue work at ``time`` under a number taken with reserve()."""
        if not time >= self.now:
            if time != time:
                raise SimulationError(f"scheduled event at t={time}: not a number")
            if self.now - time <= TIME_EPSILON:
                time = self.now
            else:
                raise SimulationError(
                    f"scheduled event at t={time} in the past (clock={self.now})"
                )
        entry = [time, seq, fn]
        entries = self._pending.get(time)
        if entries is None:
            self._pending[time] = [entry]
            heappush(self._times, time)
            return entry
        lo = 0
        if self._running and self._running[0] is entries:
            # land after the entries that have run: a number below the
            # running event's then runs next, as a heap would run it
            lo = len(entries) - length_hint(self._running[1])
        entries.insert(bisect_left(entries, seq, lo, key=_SEQ), entry)
        return entry

    def cancel(self, handle: Handle) -> None:
        """Keep a pending event from running; a no-op once it has run."""
        handle[2] = None

    def clear(self) -> None:
        """Drop every pending event (between runs, not from a callback)."""
        self._times.clear()
        self._pending.clear()
        self._running = ()

    def run_until(self, t_end: float) -> int:
        """Process every event with time <= t_end; clock finishes at t_end.

        The cyclic collector is paused while the loop runs and restored to
        the caller's setting afterwards, even when a callback raises. A run
        makes no reference cycle (the runner drops the few it holds once the
        run is over), so a collector pass mid-run would only scan the live
        network and free nothing.
        """
        if not t_end >= self.now:
            if t_end != t_end:
                raise SimulationError(f"run_until({t_end}): not a number")
            raise SimulationError(f"run_until({t_end}) behind clock {self.now}")
        processed = 0
        times, pending = self._times, self._pending
        collecting = gc.isenabled()
        gc.disable()
        try:
            while times and times[0] <= t_end:
                time = times[0]
                self.now = time
                entries = pending[time]
                run = iter(entries)
                self._running = (entries, run)
                try:
                    # the iterator also reaches entries appended at `now` meanwhile
                    for _, _, fn in run:
                        if fn is not None:
                            fn()
                            processed += 1
                except BaseException:
                    # the raising event is spent; the rest of its instant stays pending
                    del entries[: len(entries) - length_hint(run)]
                    self._running = ()
                    raise
                heappop(times)
                del pending[time]
        finally:
            if collecting:
                gc.enable()
        self._running = ()
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
