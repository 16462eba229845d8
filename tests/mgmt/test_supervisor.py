"""The supervision layer: lease-driven down detection, driven restarts.

The registry must be *honest*: the one liveness signal is the node's
ADP lease, refreshed by an advertiser that probes the node and runs on
its own CPU, so every failure mode the fault layer can inject — a
killed process, a frozen process, a halted CPU — lets the lease lapse
through the same starvation a real watchdog daemon would see.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.core import EthernetSpeakerSystem
from repro.mgmt.supervisor import DOWN, UP, Supervisor
from repro.sim import Simulator

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)

VALID_TIME = 1.0
CHECK_INTERVAL = 0.1


def build(duration=12.0, valid_time=VALID_TIME, **sup_kwargs):
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    node = system.add_speaker(channel=channel)
    system.advertise_speaker(node, valid_time=valid_time)
    sup_kwargs.setdefault("restart_delay", 0.5)
    supervisor = system.add_supervisor(**sup_kwargs)
    system.supervise_speaker(supervisor, node)
    system.add_controller(supervisor=supervisor,
                          check_interval=CHECK_INTERVAL)
    system.play_synthetic(producer, duration, LOW)
    return system, node, supervisor


def test_healthy_node_beats_and_stays_up():
    # the beat is the lease refresh: one advert every valid_time / 4
    system, node, sup = build()
    system.run(until=5.0)
    health = sup.nodes[node.speaker.name]
    assert health.status == UP
    assert node.advertiser.stats.advertises >= 15
    assert sup.stats.lease_expiries == 0
    assert sup.stats.restarts == 0


def test_crashed_speaker_is_detected_and_restarted():
    system, node, sup = build()
    system.sim.schedule(4.0, node.speaker.crash)
    system.run(until=12.0)
    health = sup.nodes[node.speaker.name]
    assert health.restarts == 1
    assert health.status == UP
    assert sup.stats.lease_expiries >= 1
    assert node.speaker._proc.alive
    # playback resumed after the driven cold restart
    assert node.stats.play_log[-1][1] > 6.0
    assert len(node.stats.rejoin_gaps) == 1
    # detection + restart happened within a few scan intervals
    assert node.stats.rejoin_gaps[0] < 3.0
    assert system.pipeline_report().node_restarts == 1


def test_hung_speaker_with_halted_cpu_starves_the_beat():
    # freeze_cpu=True: even the advertiser cannot run (its beat, the
    # lease refresh, starves), so the registry learns about the hang by
    # *absence*, not by probing
    system, node, sup = build()
    system.sim.schedule(4.0, node.speaker.hang)
    system.run(until=12.0)
    health = sup.nodes[node.speaker.name]
    assert health.restarts == 1
    assert health.status == UP
    assert not node.machine.cpu.halted  # cold_restart unhalted it
    assert node.stats.play_log[-1][1] > 6.0


def test_node_recovering_on_its_own_skips_the_restart():
    system, node, sup = build(restart_delay=2.0)
    # hang without halting the CPU, and recover before the delayed
    # restart fires: the supervisor must notice and leave it alone
    system.sim.schedule(4.0, lambda: node.speaker.hang(freeze_cpu=False))
    system.sim.schedule(5.6, node.speaker.unhang)
    system.run(until=12.0)
    health = sup.nodes[node.speaker.name]
    assert health.restarts == 0
    assert health.status == UP
    # the hang was observed, the recovery honoured
    assert sup.stats.lease_expiries == 1
    assert node.stats.rejoin_gaps == []  # no cold restart, no RAM loss


def test_restart_delay_none_disables_driven_restarts():
    system, node, sup = build(restart_delay=None)
    system.sim.schedule(4.0, node.speaker.crash)
    system.run(until=10.0)
    health = sup.nodes[node.speaker.name]
    assert health.status == DOWN
    assert health.restarts == 0
    assert not node.speaker._proc.alive


def test_down_node_whose_lease_returns_is_marked_up():
    # no driven restarts: the node is down while its lease is lapsed and
    # up again as soon as the controller hears it advertise
    system, node, sup = build(restart_delay=None)
    system.sim.schedule(4.0, lambda: node.speaker.hang(freeze_cpu=False))
    system.sim.schedule(6.0, node.speaker.unhang)
    seen = {}
    system.sim.schedule(5.9, lambda: seen.setdefault("hung", sup.status(
        node.speaker.name)))
    system.run(until=8.0)
    assert seen["hung"] == DOWN
    assert sup.status(node.speaker.name) == UP
    assert sup.stats.lease_expiries == 1


def test_restart_that_does_not_take_is_retried():
    """The speaker crashes again right after its driven restart, before
    it can advertise: the controller reports the still-lapsed lease
    again one valid_time later and the supervisor restarts it again."""
    system, node, sup = build()
    controller = system.controllers[0]
    system.sim.schedule(4.0, node.speaker.crash)
    now = 4.0
    while sup.stats.restarts == 0:
        now += 0.01
        system.run(until=now)
    assert now < 4.0 + VALID_TIME + CHECK_INTERVAL + 0.5 + 0.01
    node.speaker.crash()
    # it never got an advert out: the registry still holds the lapse
    assert controller.find(node.speaker.name).state == "expired"
    system.run(until=12.0)
    health = sup.nodes[node.speaker.name]
    assert health.restarts == 2
    assert health.status == UP
    assert node.speaker._proc.alive
    assert node.stats.play_log[-1][1] > 8.0


def test_supervisor_without_a_controller_is_refused_at_run():
    """Lease expiries are a supervisor's only input: one that watches
    nodes but is bound to no controller would never act, so run()
    refuses it."""
    system = EthernetSpeakerSystem()
    node = system.add_speaker(channel=None, start=False)
    system.advertise_speaker(node, valid_time=VALID_TIME)
    sup = system.add_supervisor()
    system.supervise_speaker(sup, node)
    system.add_controller(check_interval=CHECK_INTERVAL)
    with pytest.raises(ValueError, match="add_controller"):
        system.run(until=1.0)


@pytest.mark.parametrize("fault", ["crash", "hang", "hang-cpu-running"])
def test_detection_latency_is_bounded_by_the_lease(fault):
    """Fault to driven restart takes at most valid_time (the lease
    lapses) + check_interval (the controller's scan notices) +
    restart_delay (the watchdog-reset latency)."""
    restart_delay = 0.5
    system, node, sup = build(restart_delay=restart_delay)
    restart_at = []
    cold_restart = node.speaker.cold_restart

    def recording_restart():
        restart_at.append(system.sim.now)
        return cold_restart()

    sup._restarts[node.speaker.name] = recording_restart
    speaker = node.speaker
    inject = {
        "crash": speaker.crash,
        "hang": speaker.hang,
        "hang-cpu-running": lambda: speaker.hang(freeze_cpu=False),
    }[fault]
    fault_at = 4.03
    system.sim.schedule(fault_at, inject)
    system.run(until=12.0)
    assert len(restart_at) == 1
    latency = restart_at[0] - fault_at
    assert 0 < latency <= VALID_TIME + CHECK_INTERVAL + restart_delay
    assert node.stats.play_log[-1][1] > 6.0


def test_parked_speaker_is_not_restarted():
    """A speaker booted parked (never started, waiting for its first
    ACMP CONNECT) is healthy: supervising it must not cold-restart it."""
    system = EthernetSpeakerSystem()
    node = system.add_speaker(channel=None, start=False, name="parked")
    system.advertise_speaker(node, valid_time=VALID_TIME)
    sup = system.add_supervisor(restart_delay=0.5)
    system.supervise_speaker(sup, node)
    system.add_controller(supervisor=sup, check_interval=CHECK_INTERVAL)
    system.run(until=6.0)
    assert sup.stats.restarts == 0
    assert sup.stats.lease_expiries == 0
    assert sup.status("parked") == UP
    assert node.speaker.group_ip is None
    assert node.speaker._proc is None


def test_supervising_an_unadvertised_node_is_refused():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, channel)
    node = system.add_speaker(channel=channel)
    sup = system.add_supervisor()
    with pytest.raises(ValueError):
        system.supervise_speaker(sup, node)
    with pytest.raises(ValueError):
        system.supervise_rebroadcaster(sup, rb)


def test_supervised_rebroadcaster_restart_bumps_epoch():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    channel = system.add_channel("ch", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, channel, control_interval=0.5)
    node = system.add_speaker(channel=channel)
    system.advertise_rebroadcaster(rb, valid_time=VALID_TIME)
    supervisor = system.add_supervisor(restart_delay=0.5)
    system.supervise_rebroadcaster(supervisor, rb)
    system.add_controller(supervisor=supervisor,
                          check_interval=CHECK_INTERVAL)
    system.play_synthetic(producer, 12.0, LOW)
    system.sim.schedule(4.0, rb.stop)
    system.run(until=12.0)
    assert rb.alive
    assert rb.epoch == 1  # the new incarnation announces itself
    assert node.stats.epoch_resyncs == 1
    assert node.stats.play_log[-1][1] > 6.0
    assert system.pipeline_report().conservation_ok


def test_watch_rejects_duplicate_names():
    sup = Supervisor(Simulator())
    sup.watch("n", lambda: True)
    with pytest.raises(ValueError):
        sup.watch("n", lambda: True)


def test_snapshot_carries_status_map():
    system, node, sup = build()
    system.run(until=3.0)
    snap = sup.snapshot()
    assert snap.nodes == {node.speaker.name: UP}
