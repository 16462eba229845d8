"""The dynamic control plane end to end: ADP, AECP, ACMP, supervision.

Covers the tentpole behaviours: entities self-advertise with leases and
serial indices, zombies age out within 2x valid_time, clean departures
retire immediately, stale adverts are rejected, descriptors enumerate
over the management request path, tune/retune is a CONNECT/DISCONNECT
transaction with bounded retry, the controller owns the fleet map, and
lease expiry feeds the supervisor without double restarts.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams, sine
from repro.core import EthernetSpeakerSystem
from repro.core.protocol import (
    ENTITY_REBROADCASTER,
    ENTITY_SPEAKER,
    ENTITY_STANDBY,
)
from repro.mgmt.controller import ENT_AVAILABLE, ENT_DEPARTED, ENT_EXPIRED
from repro.sim.process import Process, Sleep, WaitProcess

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


def spawn(system, gen, name="driver"):
    return Process.spawn(system.sim, gen, name=name)


# -- ADP: advertisement, lease, departure -------------------------------------


def test_entities_self_advertise_and_register():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("lobby", params=LOW)
    rb = system.add_rebroadcaster(producer, ch)
    system.advertise_rebroadcaster(rb)
    node = system.add_speaker(channel=ch, name="es-a")
    system.advertise_speaker(node)
    controller = system.add_controller()
    system.run(until=2.0)
    assert len(controller.available()) == 2
    speaker_rec = controller.find("es-a")
    assert speaker_rec.kind == ENTITY_SPEAKER
    assert speaker_rec.state == ENT_AVAILABLE
    assert speaker_rec.channel_id == ch.channel_id
    rb_rec = controller.find(f"{producer.machine.name}/rb-ch{ch.channel_id}")
    assert rb_rec.kind == ENTITY_REBROADCASTER
    assert controller.stats.adp_advertises > 0
    assert controller.stats.stale_adverts == 0


def test_zombie_ages_out_within_two_leases():
    """advertise-then-crash without DEPARTING: the lease does the work."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="zomb")
    system.advertise_speaker(node, valid_time=1.0)
    controller = system.add_controller(check_interval=0.1)
    expired = {}
    controller.on_expired = lambda rec: expired.setdefault(
        rec.name, system.sim.now
    )
    crash_at = 2.0
    system.sim.schedule(crash_at, node.speaker.crash)
    system.run(until=6.0)
    assert controller.find("zomb").state == ENT_EXPIRED
    assert "zomb" in expired
    assert expired["zomb"] <= crash_at + 2 * 1.0
    assert controller.stats.expiries == 1


def test_clean_departure_skips_the_lease_wait():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="leaver")
    adv = system.advertise_speaker(node, valid_time=5.0)
    controller = system.add_controller(check_interval=0.1)
    departed = {}
    controller.on_departed = lambda rec: departed.setdefault(
        rec.name, system.sim.now
    )
    system.sim.schedule(2.0, adv.depart)
    system.run(until=3.0)
    # retired immediately (plus wire+scan latency), not at lease expiry
    assert controller.find("leaver").state == ENT_DEPARTED
    assert departed["leaver"] < 2.5
    assert controller.stats.departs == 1
    assert adv.stats.departs == 1


def test_stale_advert_cannot_resurrect_newer_state():
    """Replay an old ENTITY_AVAILABLE (lower available_index): the
    registry must count it stale and keep the newer view."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="fresh")
    system.advertise_speaker(node, valid_time=2.0)
    controller = system.add_controller(check_interval=0.1)

    def replay():
        yield Sleep(2.0)
        rec = controller.find("fresh")
        assert rec is not None
        from repro.core.protocol import ADP_AVAILABLE, AdpPacket
        from repro.mgmt.discovery import DISCOVERY_GROUP, DISCOVERY_PORT
        stale = AdpPacket(
            entity_id=rec.entity_id,
            message_type=ADP_AVAILABLE,
            entity_kind=ENTITY_SPEAKER,
            valid_time=2.0,
            available_index=(rec.available_index - 5) % 2 ** 16,
            channel_id=99,       # wrong channel: must NOT be believed
            name="fresh",
        )
        sock = node.machine.control_stack.socket()
        sock.sendto(stale.encode(), (DISCOVERY_GROUP, DISCOVERY_PORT))
        yield Sleep(0.5)

    spawn(system, replay())
    system.run(until=3.0)
    rec = controller.find("fresh")
    assert rec.channel_id == ch.channel_id      # newer view kept
    assert controller.stats.stale_adverts >= 1


def test_restart_bumps_serial_and_returns_entity():
    """A crash + cold restart must re-register the entity with a newer
    serial (boot counts as a state change)."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="phoenix")
    system.advertise_speaker(node, valid_time=1.0)
    controller = system.add_controller(check_interval=0.1)
    seen = []
    controller.on_available = lambda rec, returning: seen.append(
        (system.sim.now, returning, rec.available_index)
    )
    system.sim.schedule(2.0, node.speaker.crash)
    system.sim.schedule(4.5, node.speaker.cold_restart)
    system.run(until=7.0)
    rec = controller.find("phoenix")
    assert rec.state == ENT_AVAILABLE
    assert controller.stats.expiries == 1
    # first sighting at boot, second after the restart
    assert len(seen) == 2
    assert seen[0][1] is False and seen[1][1] is True
    assert seen[1][2] != seen[0][2]


def test_failover_epoch_bump_advances_the_serial():
    """A standby takeover bumps the rebroadcaster epoch; the advertiser
    must fold that into the advert (epoch field + serial bump)."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("hall", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, ch, control_interval=0.25)
    standby = system.add_standby(producer, ch, takeover_timeout=0.75,
                                 control_interval=0.25)
    system.advertise_standby(standby)
    controller = system.add_controller(check_interval=0.1)
    system.play_pcm(producer, sine(440, 6.0, 8000), LOW, source_paced=True)
    system.sim.schedule(2.0, rb.stop)       # primary dies mid-stream
    system.run(until=6.0)
    assert standby.stats.takeovers == 1
    rec = controller.find(standby.name)
    assert rec.kind == ENTITY_STANDBY
    assert rec.epoch == standby.rb.epoch    # bumped epoch made it out
    assert standby.rb.epoch > 0


# -- AECP enumeration ----------------------------------------------------------


def test_enumeration_reads_the_descriptor():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="descr")
    node.speaker.gain = 0.5
    system.advertise_speaker(node)
    controller = system.add_controller(auto_enumerate=True)
    system.run(until=2.0)
    rec = controller.find("descr")
    assert rec.descriptor is not None
    assert rec.descriptor["name"] == "descr"
    assert rec.descriptor["group"] == ch.group_ip
    assert rec.descriptor["port"] == str(ch.port)
    assert float(rec.descriptor["gain"]) == 0.5
    assert controller.stats.enumerations == 1
    assert controller.stats.enumeration_failures == 0


def test_enumeration_of_dead_entity_fails_bounded():
    """AECP against a machine that stops answering exhausts its seeded
    retries and counts a failure — it never hangs."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="mute")
    system.advertise_speaker(node, valid_time=10.0)
    controller = system.add_controller(
        check_interval=0.1, txn_timeout=0.1, txn_retries=2
    )
    results = {}

    def driver():
        yield Sleep(1.0)
        rec = controller.find("mute")
        # silence the agent (machine halts: nothing answers AECP)
        node.machine.cpu.halt()
        proc = controller.enumerate(rec.entity_id)
        results["ok"] = yield WaitProcess(proc)

    spawn(system, driver())
    system.run(until=4.0)
    assert results["ok"] is False
    assert controller.stats.enumeration_failures == 1
    assert controller.stats.enumeration_retries == 1


# -- ACMP connection management ------------------------------------------------


def test_connect_starts_parked_speaker_and_updates_fleet_map():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("lobby", params=LOW, compress="never")
    system.add_rebroadcaster(producer, ch, control_interval=0.5)
    node = system.add_speaker(channel=None, start=False, name="parked")
    system.advertise_speaker(node)
    controller = system.add_controller(check_interval=0.1)
    results = {}

    def driver():
        yield Sleep(1.0)
        assert node.speaker._proc is None           # still parked
        proc = system.connect_speaker(controller, node, ch)
        results["ok"] = yield WaitProcess(proc)

    spawn(system, driver())
    system.play_pcm(producer, sine(440, 2.0, 8000), LOW, start_after=2.0)
    system.run(until=6.0)
    assert results["ok"] is True
    assert node.channel is ch
    assert node.speaker.group_ip == ch.group_ip
    assert node.stats.played > 0                    # it actually plays
    assert controller.stats.acmp_connects == 1
    assert controller.fleet_map()[ch.channel_id] == ["parked"]
    assert controller.census(ch.channel_id) == 1


def test_disconnect_parks_the_speaker():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="off")
    system.advertise_speaker(node)
    controller = system.add_controller(check_interval=0.1)
    results = {}

    def driver():
        yield Sleep(1.0)
        proc = system.disconnect_speaker(controller, node)
        results["ok"] = yield WaitProcess(proc)

    spawn(system, driver())
    system.run(until=3.0)
    assert results["ok"] is True
    assert node.channel is None
    assert node.speaker.group_ip is None
    assert controller.stats.acmp_disconnects == 1
    assert controller.census(ch.channel_id) == 0


def test_retune_is_a_transaction_between_channels():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    a = system.add_channel("a", params=LOW, compress="never")
    b = system.add_channel("b", params=LOW, compress="never")
    node = system.add_speaker(channel=a, name="surfer")
    system.advertise_speaker(node)
    controller = system.add_controller(check_interval=0.1)
    results = {}

    def driver():
        yield Sleep(1.0)
        proc = system.connect_speaker(controller, node, b)
        results["ok"] = yield WaitProcess(proc)

    spawn(system, driver())
    system.run(until=3.0)
    assert results["ok"] is True
    assert node.channel is b
    assert (node.speaker.group_ip, node.speaker.port) == (b.group_ip, b.port)
    rec = controller.find("surfer")
    assert rec.connected == (b.group_ip, b.port, b.channel_id)


def test_crash_during_acmp_transaction_fails_bounded():
    """The listener dies mid-transaction: seeded retries, then a counted
    failure; determinism across two runs of the same seed."""

    def run_once():
        system = EthernetSpeakerSystem(seed=7)
        ch = system.add_channel("lobby", params=LOW)
        node = system.add_speaker(channel=None, start=False, name="victim")
        system.advertise_speaker(node, valid_time=10.0)
        controller = system.add_controller(
            check_interval=0.1, txn_timeout=0.1, txn_retries=3
        )
        results = {}

        def driver():
            yield Sleep(1.0)
            node.machine.cpu.halt()     # dies as the CONNECT is issued
            proc = system.connect_speaker(controller, node, ch)
            results["ok"] = yield WaitProcess(proc)

        spawn(system, driver())
        system.run(until=5.0)
        return results["ok"], controller.stats.acmp_failures, \
            controller.stats.acmp_retries, system.sim.now

    first = run_once()
    second = run_once()
    assert first == second              # bit-identical outcome per seed
    ok, failures, retries, _ = first
    assert ok is False
    assert failures == 1
    assert retries == 2


def test_controller_restart_repopulates_registry():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    nodes = [
        system.add_speaker(channel=ch, name=f"es{i}") for i in range(3)
    ]
    for n in nodes:
        system.advertise_speaker(n, valid_time=2.0)
    controller = system.add_controller(check_interval=0.1)

    def driver():
        yield Sleep(1.5)
        assert len(controller.available()) == 3
        controller.crash()
        yield Sleep(0.5)
        controller.restart()
        assert controller.entities == {}        # leases not persisted
        yield Sleep(1.0)
        # repopulated from live adverts within ~one advertising interval
        assert len(controller.available()) == 3

    proc = spawn(system, driver())
    system.run(until=4.0)
    assert proc.exception is None
    assert controller.stats.restarts == 1


def test_cold_boot_census_is_solicited_not_waited():
    """A controller cold-booting mid-interval multicasts ENTITY_DISCOVER
    on the solicitation group and the fleet answers immediately: the
    census completes in ~wire time instead of waiting out the
    advertisers' periodic interval."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    nodes = [
        system.add_speaker(channel=ch, name=f"es{i}") for i in range(3)
    ]
    # valid_time 4.0 -> 1.0 s advertising cadence: a cold boot that has
    # to wait for periodic refreshes would take ~0.5 s from t=2.5
    advs = [system.advertise_speaker(n, valid_time=4.0) for n in nodes]
    controller = system.add_controller(check_interval=0.1)
    times = {}

    def driver():
        yield Sleep(0.5)
        assert len(controller.available()) == 3     # warm census done
        controller.crash()
        yield Sleep(2.0)                            # fleet keeps beating
        controller.restart()                        # cold boot at t=2.5,
        assert controller.entities == {}            # mid-interval, RAM gone
        while len(controller.available()) < 3:
            yield Sleep(0.01)
        times["census"] = system.sim.now

    proc = spawn(system, driver())
    system.run(until=5.0)
    assert proc.exception is None
    # the pin: census rebuilt essentially instantly after boot — far
    # inside the 0.5 s the next periodic advert would have cost
    assert times["census"] - 2.5 < 0.2
    assert controller.stats.discovers_sent >= 2     # first boot + restart
    assert all(a.stats.solicited >= 1 for a in advs)


# -- supervisor integration ----------------------------------------------------


def test_lease_expiry_drives_exactly_one_restart():
    """Lease expiry notices the crash and drives the restart; the
    restart_pending latch must keep it to one restart, and the restarted
    node's returning advert re-registers it."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="onceonly")
    system.advertise_speaker(node, valid_time=1.0)
    sup = system.add_supervisor(restart_delay=0.25)
    system.supervise_speaker(sup, node)
    controller = system.add_controller(
        supervisor=sup, check_interval=0.1
    )
    system.sim.schedule(2.0, node.speaker.crash)
    system.run(until=8.0)
    assert sup.stats.restarts == 1
    assert node.speaker._proc is not None and node.speaker._proc.alive
    assert controller.find("onceonly").state == ENT_AVAILABLE
    report = system.pipeline_report()
    assert report.node_restarts == 1
    assert report.adp_expiries >= 1


def test_lease_expiry_for_live_node_is_ignored():
    """A transient lease lapse (advertiser killed, node fine) must not
    restart a healthy node."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=ch, name="healthy")
    adv = system.advertise_speaker(node, valid_time=1.0)
    sup = system.add_supervisor(restart_delay=0.25)
    system.supervise_speaker(sup, node)
    system.add_controller(supervisor=sup, check_interval=0.1)
    system.sim.schedule(2.0, adv.stop)    # beacon dies, speaker lives
    system.run(until=6.0)
    assert sup.stats.restarts == 0
    assert sup.stats.lease_expiries == 0  # probe said: node is fine
    assert node.speaker._proc.alive


# -- reporting -----------------------------------------------------------------


def test_pipeline_report_itemises_control_plane_counters():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("lobby", params=LOW, compress="never")
    system.add_rebroadcaster(producer, ch, control_interval=0.5)
    node = system.add_speaker(channel=None, start=False, name="dyn")
    system.advertise_speaker(node)
    controller = system.add_controller(
        check_interval=0.1, auto_enumerate=True
    )

    def driver():
        yield Sleep(1.0)
        yield WaitProcess(system.connect_speaker(controller, node, ch))

    spawn(system, driver())
    system.play_pcm(producer, sine(440, 1.0, 8000), LOW, start_after=2.0)
    system.run(until=5.0)
    report = system.pipeline_report()
    assert report.adp_advertises > 0
    assert report.acmp_connects == 1
    assert report.acmp_failures == 0
    assert report.enumerations >= 1
    assert report.adp_expiries == 0
    # the control plane lives out of band: the audio ledger stays closed
    assert report.conservation_ok
    summary = report.summary()
    assert "acmp connects" in summary
    assert "adp advertises" in summary


def test_unadvertised_speaker_cannot_be_connected():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("lobby", params=LOW)
    node = system.add_speaker(channel=None, start=False)
    controller = system.add_controller()
    with pytest.raises(ValueError):
        system.connect_speaker(controller, node, ch)
