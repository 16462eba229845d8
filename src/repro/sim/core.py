"""Event loop and virtual clock.

The :class:`Simulator` owns a priority queue of timed events.  Nothing in the
repository reads the host's wall clock: every duration — a DMA block transfer,
a context switch, a packet serialisation delay, an Ogg-style encode — is
expressed as virtual seconds scheduled here.  That determinism is what lets
the timing-sensitive experiments of the paper (synchronisation skew, buffer
sizing on a 233 MHz CPU) reproduce bit-for-bit on any machine.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Optional


class SimError(Exception):
    """Raised for misuse of the simulation core."""


#: bucket bounds for queue-depth/cascade histograms (kept here so the
#: event loop never has to import the metrics package)
_DEPTH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)


class Event(list):
    """A scheduled callback: the list ``[time, seq, fn, args, transient]``.

    Returned by :meth:`Simulator.schedule` so callers can cancel it.  The
    ``seq`` field breaks ties between events scheduled for the same instant,
    preserving FIFO order of scheduling.  Being a list, an event is ordered
    by ``heapq`` in C: the comparison settles on ``(time, seq)`` (``seq`` is
    unique) and never reaches the callback.  The named fields are read-only
    views of the slots; the simulator writes the slots directly.

    Cancelling clears the ``fn`` slot, so a cancelled event is one whose
    ``fn`` is ``None``.

    ``transient`` marks an event scheduled through
    :meth:`Simulator.schedule_transient`: no handle was handed out, so it
    can never be cancelled, and the simulator recycles the object through a
    free list after it fires.  Events with visible handles are never
    recycled — a caller may legitimately hold one and cancel it long after
    it ran.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    fn = property(itemgetter(2))
    args = property(itemgetter(3))
    transient = property(itemgetter(4))

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self[2] is None else "pending"
        return f"<Event t={self[0]:.6f} seq={self[1]} {state}>"


class Simulator:
    """Discrete-event scheduler with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "hello at t=1.5")
        sim.run(until=10.0)
    """

    #: free-list bound: enough to absorb the steady-state churn of a large
    #: fan-out without pinning memory after a burst
    MAX_FREE_EVENTS = 4096

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[Event] = []
        #: recycled transient Event objects (allocation free-list)
        self._free: list[Event] = []
        #: events executed so far (plain int so benchmarks can compute
        #: events/sec with telemetry disabled)
        self.events_executed = 0
        #: exceptions that escaped processes nobody was waiting on;
        #: re-raised at the end of :meth:`run` so tests cannot miss them.
        self.unhandled: list[BaseException] = []
        #: attached :class:`repro.metrics.telemetry.Telemetry`, or None.
        #: Duck-typed on purpose: the metrics package imports the kernel
        #: (vmstat), so the event loop must not import metrics.
        self.telemetry = None
        self._batch_events = 0

    def set_telemetry(self, telemetry) -> None:
        """Attach a telemetry registry; pass ``None`` (or a disabled
        registry) to return the loop to its uninstrumented fast path."""
        if telemetry is not None and not telemetry.enabled:
            telemetry = None
        self.telemetry = telemetry
        self._batch_events = 0

    def _record_step(self, ev: Event) -> None:
        """Event-loop health: queue depth, sampled every 64th executed
        event, and the depth of zero-delay cascades (events piling up at
        one instant — the sim-world analogue of scheduling lag)."""
        tel = self.telemetry
        if ev[0] == self._now and self._batch_events:
            self._batch_events += 1
        else:
            if self._batch_events > 1:
                tel.observe("sim.zero_delay_cascade", self._batch_events,
                            bounds=_DEPTH_BOUNDS)
            self._batch_events = 1
        if self.events_executed % 64 == 0:
            tel.observe("sim.queue_depth", len(self._heap),
                        bounds=_DEPTH_BOUNDS)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._seq += 1
        ev = Event((time, self._seq, fn, args, False))
        heappush(self._heap, ev)
        return ev

    def schedule_transient(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        The hot-path variant of :meth:`schedule` for fire-and-forget work
        (packet deliveries, process wakeups, CPU slice completions): since
        no handle escapes, the Event object is drawn from — and returned
        to — a bounded free list, cutting per-event allocation churn.
        """
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        free = self._free
        if free:
            ev = free.pop()
            ev[0] = self._now + delay
            ev[1] = self._seq
            ev[2] = fn
            ev[3] = args
        else:
            ev = Event((self._now + delay, self._seq, fn, args, True))
        heappush(self._heap, ev)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice, or cancelling an
        event that already fired, is harmless."""
        event[2] = None

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is empty.
        """
        heap = self._heap
        while heap:
            ev = heappop(heap)
            fn = ev[2]
            if fn is None:
                continue
            self.events_executed += 1
            if self.telemetry is not None:
                self._record_step(ev)
            self._now = ev[0]
            fn(*ev[3])
            if ev[4] and len(self._free) < self.MAX_FREE_EVENTS:
                ev[2] = None
                ev[3] = ()
                self._free.append(ev)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so measurement windows have a
        well-defined length.  Re-raises the first unhandled process
        exception, if any.

        Every event runs through ``self.step()``, so a per-instance
        ``step`` override (an event tracer) sees each one.
        """
        heap = self._heap
        unhandled = self.unhandled
        stop = float("inf") if until is None else until
        while heap:
            nxt = heap[0]
            if nxt[2] is None:
                heappop(heap)
                continue
            if nxt[0] > stop:
                break
            self.step()
            if unhandled:
                raise unhandled[0]
        if until is not None and until > self._now:
            self._now = until
        if unhandled:
            raise unhandled[0]
        return self._now

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for ev in self._heap if ev[2] is not None)
