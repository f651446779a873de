"""Deterministic discrete-event scheduler with labelled random streams."""

import gc
import hashlib
import random
from bisect import bisect_right
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable

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
# also the handle the schedule methods return: ``fn`` runs when the clock
# reaches ``time``, and cancel() sets it to None. The entry leaves the list
# just before it runs.
Handle = list

_SEQ = itemgetter(1)


class Engine:
    """Virtual-clock event loop.

    Events are processed in strictly non-decreasing time order; ties are
    broken by number (an insertion counter from 0, or a caller's rank), and
    equal numbers FIFO, so a run is fully reproducible.

    Pending events are kept per instant: a heap holds each distinct pending
    time once, and ``_pending`` maps it to its entries in number order. Most
    events share their instant with others (hello ticks on whole seconds,
    their deliveries one airtime later), so the heap stays small and an
    instant's events run from a plain list. Each entry is taken off the front
    of that list just before it runs, so at every moment, inside a callback
    too, the list holds exactly the entries of its instant that have not run.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._times: list[float] = []
        self._pending: dict[float, list[Handle]] = {}
        self._counter = 0
        self.processed = 0

    def schedule(self, time: float, kind: str, fn: Callable[[], None]) -> Handle:
        """Enqueue work at ``time``; returns a handle usable with cancel()."""
        seq = self._counter
        self._counter = seq + 1
        if not time >= self.now:  # behind the clock, or NaN
            return self.schedule_ranked(time, seq, kind, fn)
        # a fresh number is above every pending one, so it goes last
        entry = [time, seq, fn]
        entries = self._pending.get(time)
        if entries is None:
            self._pending[time] = [entry]
            heappush(self._times, time)
        else:
            entries.append(entry)
        return entry

    def schedule_ranked(
        self, time: float, rank: int, kind: str, fn: Callable[[], None]
    ) -> Handle:
        """Enqueue work at ``time`` under ``rank`` in place of a fresh
        number: it runs after the lower numbers at its instant and the equal
        ranks pushed before it. schedule() appends a fresh number last, so a
        caller's rank is negative, below every number schedule() hands out."""
        if not time >= self.now:
            if time != time:
                raise SimulationError(f"scheduled event at t={time}: not a number")
            if self.now - time <= TIME_EPSILON:
                time = self.now
            else:
                raise SimulationError(
                    f"scheduled event at t={time} in the past (clock={self.now})"
                )
        entry = [time, rank, fn]
        entries = self._pending.get(time)
        if entries is None:
            self._pending[time] = [entry]
            heappush(self._times, time)
            return entry
        entries.insert(bisect_right(entries, rank, key=_SEQ), entry)
        return entry

    def cancel(self, handle: Handle) -> None:
        """Keep a pending event from running; a no-op once it has run."""
        handle[2] = None

    def clear(self) -> None:
        """Drop every pending event (between runs, not from a callback)."""
        self._times.clear()
        self._pending.clear()

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
                # a raising entry is already off the list, and the rest of its
                # instant stays pending; entries pushed to `now` meanwhile run too
                while entries:
                    fn = entries.pop(0)[2]
                    if fn is not None:
                        fn()
                        processed += 1
                heappop(times)
                del pending[time]
        finally:
            if collecting:
                gc.enable()
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
