"""Event loop: ordering, cancellation, clock semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, SimError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(4.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.5]
    assert sim.now == 4.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock lands exactly on the window edge
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, fired.append, "y")
    sim.cancel(ev)
    sim.run()
    assert fired == ["y"]


def test_cancel_twice_is_harmless():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.cancel(ev)
    sim.cancel(ev)
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(1.0, lambda: None)


def test_events_scheduled_from_events_run():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_counts_live_events():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    sim.cancel(ev)
    assert sim.pending() == 1


# -- the event heap ------------------------------------------------------------

#: few distinct delays, so same-instant ties (broken by seq) are common
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS),
        st.tuples(st.just("schedule_at"), DELAYS),
        st.tuples(st.just("transient"), DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("step"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_heap_fires_in_time_seq_order_against_sorted_reference(ops):
    """Random interleavings of schedule, schedule_at, schedule_transient,
    cancel (of pending, cancelled and already-fired handles) and step
    fire exactly the live events, in ``(time, seq)`` order."""
    sim = Simulator()
    fired = []
    live = {}  # seq -> (time, seq): the reference queue
    handles = []  # (Event, seq) for every handle handed out
    seq = 0

    def next_expected():
        return min(live.values()) if live else None

    for op, arg in ops:
        if op == "cancel":
            if handles:
                ev, s = handles[arg % len(handles)]
                sim.cancel(ev)
                live.pop(s, None)
        elif op == "step":
            expected = next_expected()
            assert sim.step() is (expected is not None)
            if expected is not None:
                assert fired[-1] == expected[1]
                assert sim.now == expected[0]
                del live[expected[1]]
        else:
            seq += 1
            time = sim.now + arg
            if op == "schedule":
                handles.append((sim.schedule(arg, fired.append, seq), seq))
            elif op == "schedule_at":
                handles.append(
                    (sim.schedule_at(time, fired.append, seq), seq)
                )
            else:
                assert sim.schedule_transient(arg, fired.append, seq) is None
            live[seq] = (time, seq)
        assert sim.pending() == len(live)
    before = len(fired)
    sim.run()
    assert fired[before:] == [s for _, s in sorted(live.values())]
    assert sim.pending() == 0
    assert sim.events_executed == len(fired)


def test_tracer_contract_next_callback_and_step_override():
    """An outside-in tracer reads the next callback as ``sim._heap[0].fn``
    and wraps ``step`` on the instance; ``run()`` must send every event
    it executes through that override, with the heap top being the
    callback that then fires."""
    sim = Simulator()
    fired, seen = [], []

    def tick(tag):
        fired.append(tick)
        if tag < 3:
            sim.schedule_transient(0.5, tick, tag + 1)

    def tock():
        fired.append(tock)

    def never():
        fired.append(never)

    sim.schedule(1.0, tick, 0)
    sim.cancel(sim.schedule(0.2, never))
    sim.schedule(1.0, tock)
    original = sim.step
    heap = sim._heap

    def step():
        seen.append(heap[0].fn)
        return original()

    sim.step = step
    sim.run(until=5.0)
    assert seen == fired == [tick, tock, tick, tick, tick]
    assert sim.events_executed == len(seen)
