"""Discrete-event kernel shared by both execution flavors.

The simulated flavor pops events as fast as possible; the realtime flavor
is the same loop paced against the wall clock, with completion messages
from payload subprocesses injected between events.  Everything downstream
(scheduler, executors, metrics) sees one pilot clock in integer
microseconds either way.
"""

import heapq
import time


class SimEngine:
    """Single-threaded event heap over the pilot clock, which starts at 0.

    Events at one timestamp run in the order they were pushed: each gets
    the next sequence number.  Read-only outside the kernel:
    `running_seq` is the sequence number of the event running now (or last
    run), and `next_seq` the one `at` assigns next."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self.running_seq = -1
        self.next_seq = 0

    def at(self, t_us, fn):
        """Run fn at t_us; ValueError for a time before now."""
        if t_us < self.now:
            raise ValueError('event at %d us is before now' % t_us)
        heapq.heappush(self._heap, (int(t_us), self.next_seq, fn))
        self.next_seq += 1

    def close(self):
        """End a run: drop the events left unrun, whose callbacks would hold
        what ran here, and so this kernel, in a reference cycle."""
        self._heap.clear()

    def run(self, until_us=None):
        """Process events in timestamp order until the heap drains, or
        until the next event lies past `until_us`; returns whether events
        remain.  A drained run leaves `now` at its last event; a run cut
        at `until_us` leaves `now` there, with the later events unrun."""
        heap, pop = self._heap, heapq.heappop
        now = self.now
        while heap:
            t, seq, fn = event = pop(heap)
            if until_us is not None and t > until_us:
                heapq.heappush(heap, event)
                self.now = max(now, until_us)
                return True
            # `now` stays one int object across the events at one
            # timestamp, so the rows they write share it
            if t > now:
                self.now = now = t
            self.running_seq = seq
            fn()
        return False


class RealtimeEngine(SimEngine):
    """Event loop paced by the wall clock; pollers feed in completions."""

    POLL_INTERVAL = 0.002  # seconds

    def __init__(self):
        super().__init__()
        self._wall0 = time.monotonic()
        self._pollers = []

    def add_poller(self, poll_fn):
        """poll_fn() -> True while it may still produce events."""
        self._pollers.append(poll_fn)

    def close(self):
        """As SimEngine.close, and drop the pollers too."""
        super().close()
        self._pollers.clear()

    def wall_now_us(self):
        return int((time.monotonic() - self._wall0) * 1e6)

    def _poll(self):
        pending = False
        for poll_fn in self._pollers:
            if poll_fn():
                pending = True
        return pending

    def run(self, until_us=None):
        """As SimEngine.run, paced by the wall clock.  Between events the
        pilot clock follows the wall clock, up to the next event; while no
        event is due by `until_us` but a poller is pending, the run is cut
        once the wall clock passes `until_us`."""
        while True:
            pending = self._poll()
            t = self._heap[0][0] if self._heap else None
            if until_us is not None and t is not None and t > until_us:
                t = None        # past the cut: only completions can come
            if t is None:
                if not pending:
                    break
                time.sleep(self.POLL_INTERVAL)
                wall = self.wall_now_us()
                if until_us is not None and wall > until_us:
                    self.now = max(self.now, until_us)
                    return True
                self.now = max(self.now, wall)
                continue
            wall = self.wall_now_us()
            if wall < t:
                time.sleep(min((t - wall) / 1e6, self.POLL_INTERVAL))
                # completions polled next happen now, not at the last event
                self.now = max(self.now, min(self.wall_now_us(), t))
                continue
            _, self.running_seq, fn = heapq.heappop(self._heap)
            self.now = max(self.now, t)
            fn()
        if self._heap:
            self.now = max(self.now, until_us)
        return bool(self._heap)


class LaunchLane:
    """Serialized launch path of one executor component: consecutive
    launches are spaced by the per-launch delay."""

    def __init__(self, delay_us=0):
        self.delay_us = delay_us
        self.free_at = 0

    def admit(self, now_us):
        """Returns (launch_start, exec_start) for the next launch."""
        launch_start = max(now_us, self.free_at)
        exec_start = launch_start + self.delay_us
        self.free_at = exec_start
        return launch_start, exec_start
