"""Differential for the CPU's completion rule.

A completed job defers the next dispatch by one zero-delay event, but
only while the run queue holds a job (``CPU._slice_done``).  Each
scenario runs twice on the same seeds: once with the production CPU and
once with :class:`~tests.oracles.AlwaysDeferCPU`, which also defers onto
an empty queue.  Everything simulated must agree exactly: play logs,
DAC sink records, the pipeline ledger and every CPU's
``CpuStats.snapshot()``.  The two runs must differ by exactly the
oracle's deferred dispatches that found nothing to run.

The scenarios cover the paths the rule's argument leans on: contended
CPUs (Figure 5's three VAD configurations), halted CPUs that
``unhalt()`` (a hung speaker on a faulty LAN, next to a crashed one),
and a cohort spill, which clones a CPU's scheduling state mid-run.
"""

import pytest

from benchmarks.scenarios import (
    FIG_BLOCK_SECONDS,
    kernel_streaming_consumer,
    sampled_run,
)
from repro.audio import CD_QUALITY, AudioEncoding, AudioParams, sine
from repro.core import EthernetSpeakerSystem
from repro.sim.cpu import CPU
from tests.oracles import (
    AlwaysDeferCPU,
    machine_cpus,
    per_object_cohort,
    report_counts,
)

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


def fig5(mode):
    """Figure 5's producer machine, sampled by vmstat for 10 intervals."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer(block_seconds=FIG_BLOCK_SECONDS)
    channel = system.add_channel("cd", params=CD_QUALITY, compress="never")
    if mode == "kernel":
        kernel_streaming_consumer(system, producer, channel)
        system.play_synthetic(producer, 12.0, CD_QUALITY)
    elif mode == "user":
        system.add_rebroadcaster(producer, channel, real_codec=False)
        system.play_synthetic(producer, 12.0, CD_QUALITY)
    sampler = sampled_run(system, producer.machine, until=11.0)
    return system, {"vmstat": sampler.samples}


def faulty_lan(_mode):
    """Three speakers on a lossy, duplicating, reordering LAN; one
    crashes and one hangs (its CPU halts), both cold-restart."""
    system = EthernetSpeakerSystem(seed=5)
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    nodes = [system.add_speaker(channel=channel) for _ in range(3)]
    system.inject_faults(loss_rate=0.03, duplicate_rate=0.05,
                         reorder_rate=0.05, seed=11)
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW)
    system.schedule_fault(nodes[0], after=1.5, kind="crash",
                          restart_after=1.0)
    system.schedule_fault(nodes[1], after=2.0, kind="hang",
                          restart_after=1.0)
    system.run(until=9.0)
    return system, {
        "play_logs": [n.stats.play_log for n in nodes],
        "sinks": [n.sink.records for n in nodes],
        "ledger": report_counts(system.pipeline_report()),
    }


def cohort_spill(_mode):
    """A CD-quality cohort on a faulty LAN: loss spills members mid-run,
    one member crashes and one hangs, both cold-restart."""
    system = EthernetSpeakerSystem(seed=7)
    producer = system.add_producer()
    channel = system.add_channel("hall", params=CD_QUALITY)
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    fleet = system.add_speaker_cohort(channel, 6)
    system.inject_faults(loss_rate=0.05, burst_length=3, seed=107)
    system.play_synthetic(producer, 3.0, CD_QUALITY, source_paced=True)
    system.schedule_fault(fleet.tokens[2], after=1.5, kind="crash",
                          restart_after=0.8)
    system.schedule_fault(fleet.tokens[4], after=1.2, kind="hang",
                          restart_after=0.5)
    system.run(until=9.0)
    assert fleet.spills > 0
    return system, {
        "play_logs": [fleet.member_play_log(i) for i in range(6)],
        "offsets": [fleet.member_write_offsets(i) for i in range(6)],
        "stats": [fleet.member_stats(i) for i in range(6)],
        "ledger": report_counts(system.pipeline_report()),
    }


SCENARIOS = {
    "fig5-unloaded": (fig5, "unloaded"),
    "fig5-kernel": (fig5, "kernel"),
    "fig5-user": (fig5, "user"),
    "faulty-lan-crash-hang": (faulty_lan, None),
    "cohort-spill": (cohort_spill, None),
}


def run(name, cpu_class):
    build, mode = SCENARIOS[name]
    with machine_cpus(cpu_class) as cpus:
        system, observed = build(mode)
    observed["cpus"] = [(cpu.name, cpu.stats.snapshot()) for cpu in cpus]
    return system, observed, cpus


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_completion_rule_matches_always_defer_oracle(name):
    system, observed, _ = run(name, CPU)
    oracle, oracle_observed, oracle_cpus = run(name, AlwaysDeferCPU)
    assert observed == oracle_observed
    left_out = sum(cpu.noop_completions for cpu in oracle_cpus)
    assert oracle.sim.events_executed - system.sim.events_executed \
        == left_out > 0


def test_hang_scenario_exercises_halt_and_unhalt(monkeypatch):
    """The hung speaker's CPU really held jobs while halted, so the
    differential covers the halt arm of the rule's argument."""
    held = []
    original = CPU.unhalt

    def unhalt(cpu):
        if cpu.halted:
            held.append(cpu.queue_depth)
        original(cpu)

    monkeypatch.setattr(CPU, "unhalt", unhalt)
    run("faulty-lan-crash-hang", CPU)
    assert any(depth > 0 for depth in held)


def test_oracle_is_built_into_every_machine():
    with machine_cpus(AlwaysDeferCPU) as cpus:
        system = EthernetSpeakerSystem()
        system.add_producer()
        per_object_cohort(system, system.add_channel("x", params=LOW), 2)
    assert len(cpus) == 3
    assert all(type(cpu) is AlwaysDeferCPU for cpu in cpus)
