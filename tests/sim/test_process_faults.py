"""Process-level fault injection: freeze/thaw, CPU halt, kill-while-frozen.

A *hung* node is the nastiest failure mode for a watchdog: the process is
still "there" (its generator never exited) but it stops consuming its
queues and servicing its timers.  ``Process.freeze`` models exactly that —
the scheduler parks the process's next wake-up instead of delivering it —
and ``Cpu.halt`` extends the wedge to the whole machine, so even other
processes (the ADP advertiser included) starve.
"""

import pytest

from repro.kernel.machine import Machine
from repro.sim import Process, ProcessKilled, Simulator, Sleep


def spawn(sim, gen, name="p"):
    return Process.spawn(sim, gen, name)


def test_freeze_parks_wakeups_and_thaw_redelivers():
    sim = Simulator()
    ticks = []

    def body():
        while True:
            yield Sleep(1.0)
            ticks.append(sim.now)

    p = spawn(sim, body())
    sim.schedule(2.5, p.freeze)
    sim.schedule(6.25, p.thaw)
    sim.run(until=10.0)
    # ticks at 1, 2 land; the 3.0 wake-up is parked until the thaw at
    # 6.25, after which the 1 s cadence resumes from there
    assert ticks == [1.0, 2.0, 6.25, 7.25, 8.25, 9.25]


def test_frozen_process_is_alive_but_flagged():
    sim = Simulator()

    def body():
        while True:
            yield Sleep(1.0)

    p = spawn(sim, body())
    sim.run(until=0.5)
    p.freeze()
    sim.run(until=5.0)
    assert p.alive
    assert p.frozen
    p.thaw()
    sim.run(until=6.0)
    assert not p.frozen


def test_kill_while_frozen_still_runs_finally():
    sim = Simulator()
    cleaned = []

    def body():
        try:
            while True:
                yield Sleep(1.0)
        finally:
            cleaned.append(sim.now)

    p = spawn(sim, body())
    sim.schedule(1.5, p.freeze)   # the 2.0 wake-up gets parked
    sim.schedule(3.0, p.kill)
    sim.run(until=5.0)
    assert not p.alive
    assert cleaned == [3.0]


def test_kill_frozen_process_without_parked_step():
    # freeze before the pending wake-up fires, kill before it would have:
    # the kill must not deadlock waiting for a step that will never come
    sim = Simulator()

    def body():
        yield Sleep(10.0)

    p = spawn(sim, body())
    sim.schedule(1.0, p.freeze)
    sim.schedule(2.0, p.kill)
    sim.run(until=5.0)
    assert not p.alive


def test_thaw_is_noop_on_running_process():
    sim = Simulator()
    ticks = []

    def body():
        while True:
            yield Sleep(1.0)
            ticks.append(sim.now)

    p = spawn(sim, body())
    sim.schedule(0.5, p.thaw)
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]


def test_cpu_halt_starves_all_processes_on_the_machine():
    sim = Simulator()
    machine = Machine(sim, "m", cpu_freq_hz=1e6)
    done = []

    def worker(tag):
        for _ in range(4):
            yield machine.cpu.run(1e5)  # 0.1 s per slice
        done.append((tag, sim.now))

    machine.spawn(worker("a"))
    machine.spawn(worker("b"))
    sim.schedule(0.15, machine.cpu.halt)
    sim.run(until=2.0)
    assert machine.cpu.halted
    assert done == []  # nobody finished: the CPU stopped dispatching
    machine.cpu.unhalt()
    sim.run(until=5.0)
    assert sorted(tag for tag, _ in done) == ["a", "b"]
    # work resumed where it stopped, not from scratch
    assert all(t < 5.0 for _, t in done)


def test_cpu_halt_mid_job_resumes_without_losing_work():
    sim = Simulator()
    machine = Machine(sim, "m", cpu_freq_hz=1e6)
    finished = []

    def worker():
        yield machine.cpu.run(2e5)  # 0.2 s of work, several quanta
        finished.append(sim.now)

    machine.spawn(worker())
    sim.schedule(0.1, machine.cpu.halt)  # mid-job
    sim.run(until=1.0)
    assert finished == []  # parked with work remaining
    machine.cpu.unhalt()
    machine.cpu.unhalt()  # second call is a no-op
    assert not machine.cpu.halted
    sim.run(until=2.0)
    # the wedge added exactly the halted interval: 0.2 s of CPU time,
    # of which ~0.1 s ran before the halt and the rest after 1.0
    assert finished == [pytest.approx(1.1, abs=machine.cpu.quantum + 1e-9)]
