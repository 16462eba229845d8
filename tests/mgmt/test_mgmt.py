"""Catalog, central override and volume over ACMP/AECP, the read-only
SNMP MIB, auto volume."""

import pytest

from repro.audio import AudioEncoding, AudioParams, sine, speech_like
from repro.audio.room import AmbientProfile, Room
from repro.core import EthernetSpeakerSystem
from repro.mgmt import (
    AutoVolumeController,
    CatalogAnnouncer,
    CatalogListener,
    ES_MIB_BASE,
    RemoteControl,
    SnmpAgent,
    SnmpManager,
)
from repro.mgmt.snmp import MibTree, build_es_mib
from repro.security import Impostor
from repro.sim import Sleep, WaitProcess

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


# -- catalog ------------------------------------------------------------------------


def test_catalog_announces_channels():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch1 = system.add_channel("news", params=LOW)
    ch2 = system.add_channel("music", params=LOW)
    announcer = CatalogAnnouncer(producer.machine, interval=0.5)
    announcer.add_channel(ch1)
    announcer.add_channel(ch2)
    announcer.start()
    node = system.add_speaker(channel=ch1, start=False)
    listener = CatalogListener(node.machine)
    listener.start()
    system.run(until=3.0)
    names = {e.name for e in listener.live_channels()}
    assert names == {"news", "music"}
    assert listener.find("news").group_ip == ch1.group_ip


def test_catalog_entries_expire():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("brief", params=LOW)
    announcer = CatalogAnnouncer(producer.machine, interval=0.5)
    announcer.add_channel(ch)
    proc = announcer.start()
    node = system.add_speaker(channel=ch, start=False)
    listener = CatalogListener(node.machine, expiry=2.0)
    listener.start()
    system.sim.schedule(3.0, proc.kill)  # announcer dies
    system.run(until=10.0)
    assert listener.live_channels() == []


def test_catalog_suspends_listenerless_channels():
    """The MSNIP idea (§4.3): zero listeners -> stop advertising."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("idle-stream", params=LOW)
    announcer = CatalogAnnouncer(producer.machine)
    announcer.add_channel(ch)
    announcer.report_listeners(ch.channel_id, 0)
    assert announcer.live_entries() == []
    announcer.report_listeners(ch.channel_id, 3)
    assert len(announcer.live_entries()) == 1


def test_catalog_listener_rejects_untrusted_impostor():
    """§5.1: fake advertisements from impostors are filtered by the
    allow-list (an interim measure before signed catalogs)."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("lobby", params=LOW)
    announcer = CatalogAnnouncer(producer.machine, interval=0.5)
    announcer.add_channel(ch)
    announcer.start()
    attacker = system.add_producer(name="attacker", housekeeping=False)
    from repro.mgmt.catalog import CATALOG_GROUP, CATALOG_PORT

    Impostor(attacker.machine, CATALOG_GROUP, CATALOG_PORT).start()
    node = system.add_speaker(channel=ch, start=False)
    listener = CatalogListener(node.machine, trusted_names={"lobby"})
    listener.start()
    system.run(until=3.0)
    names = {e.name for e in listener.live_channels()}
    assert names == {"lobby"}
    assert listener.rejected > 0


# -- central override -----------------------------------------------------------------


def managed(system, nodes):
    """Advertise ``nodes`` and start a controller that will see them."""
    for node in nodes:
        system.advertise_speaker(node)
    return system.add_controller(check_interval=0.1)


def test_override_and_release():
    """§5.3: crew announcement overrides, then releases."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    movie = system.add_channel("movie", params=LOW, compress="never")
    crew = system.add_channel("crew", params=LOW, compress="never")
    system.add_rebroadcaster(producer, movie)
    nodes = [system.add_speaker(channel=movie) for _ in range(3)]
    parked = system.add_speaker(channel=None, start=False)
    controller = managed(system, nodes + [parked])
    during = {}

    def console():
        yield Sleep(1.0)
        for proc in system.override(controller, crew):
            assert (yield WaitProcess(proc)) is True
        during["tuned"] = [
            (n.speaker.group_ip, n.speaker.port) for n in nodes + [parked]
        ]
        yield Sleep(1.0)
        for proc in system.release(controller):
            assert (yield WaitProcess(proc)) is True

    driver = nodes[0].machine.spawn(console())
    system.run(until=3.0)
    assert driver.exception is None
    for node in nodes:
        assert (node.speaker.group_ip, node.speaker.port) == (
            movie.group_ip,
            movie.port,
        )
        assert node.channel is movie
    # the parked speaker was pulled in for the announcement and parked
    # again afterwards
    assert parked.speaker.group_ip is None
    assert parked.channel is None
    # during the override they were on the crew channel
    assert during["tuned"] == [(crew.group_ip, crew.port)] * 4
    assert all(n.agent.acmp_handled == 2 for n in nodes + [parked])
    assert controller.stats.acmp_connects == 7
    assert controller.stats.acmp_disconnects == 1


def test_release_returns_a_remote_tuned_speaker_to_its_pick():
    """§5.3 airplane: a passenger surfs with the remote, the crew
    overrides, and release returns the seat to the passenger's pick,
    not to the channel it booted on.  The census follows the remote."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    movie = system.add_channel("movie", params=LOW, compress="never")
    music = system.add_channel("music", params=LOW, compress="never")
    crew = system.add_channel("crew", params=LOW, compress="never")
    announcer = CatalogAnnouncer(producer.machine, interval=0.25)
    for ch in (movie, music):
        announcer.add_channel(ch)
    announcer.start()
    seat, other = (system.add_speaker(channel=movie) for _ in range(2))
    catalog = CatalogListener(seat.machine)
    catalog.start()
    remote = RemoteControl(seat.speaker, catalog)
    controller = managed(system, [seat, other])
    system.run(until=1.0)  # let the catalog fill
    assert remote.select("music") is not None
    system.run(until=2.0)  # one advert interval: the registry hears it
    assert controller.census(music.channel_id) == 1
    assert controller.census(movie.channel_id) == 1
    system.override(controller, crew)
    system.run(until=3.0)
    assert controller.census(crew.channel_id) == 2
    system.release(controller)
    system.run(until=4.0)
    assert (seat.speaker.group_ip, seat.speaker.port) == (
        music.group_ip, music.port,
    )
    assert (other.speaker.group_ip, other.speaker.port) == (
        movie.group_ip, movie.port,
    )
    assert controller.census(music.channel_id) == 1
    assert controller.census(movie.channel_id) == 1
    assert controller.census(crew.channel_id) == 0


def test_tune_all():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    a = system.add_channel("a", params=LOW)
    b = system.add_channel("b", params=LOW)
    nodes = [system.add_speaker(channel=a) for _ in range(2)]
    controller = managed(system, nodes)

    def tune_all():
        for node in nodes:
            system.connect_speaker(controller, node, b)

    system.sim.schedule(0.5, tune_all)
    system.run(until=1.5)
    assert all(n.speaker.group_ip == b.group_ip for n in nodes)
    assert controller.fleet_map() == {
        b.channel_id: sorted(n.speaker.name for n in nodes)
    }


def test_volume_command():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("c", params=LOW)
    node = system.add_speaker(channel=ch)
    controller = managed(system, [node])
    system.sim.schedule(0.5, controller.set_gain, node.entity_id, 0.25)
    system.run(until=1.5)
    assert node.speaker.gain == 0.25
    assert controller.stats.gain_sets == 1


# -- SNMP -----------------------------------------------------------------------------


def test_mib_tree_get_next_order():
    mib = MibTree()
    mib.register("1.2.3", lambda: b"a")
    mib.register("1.2.10", lambda: b"b")
    mib.register("1.10.1", lambda: b"c")
    walk = [oid for oid, _ in mib.walk()]
    assert walk == ["1.2.3", "1.2.10", "1.10.1"]
    assert mib.get_next("1.2.3") == ("1.2.10", b"b")
    assert mib.get_next("") == ("1.2.3", b"a")
    assert mib.get_next("1.10.1") is None


def test_snmp_get_and_walk_over_network():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("lobby", params=LOW, compress="never")
    system.add_rebroadcaster(producer, ch)
    node = system.add_speaker(channel=ch)
    SnmpAgent(node.machine, build_es_mib(node.speaker, node)).start()
    console = system.add_producer(name="nms", housekeeping=False)
    manager = SnmpManager(console.machine)
    system.play_pcm(producer, sine(440, 1.0, 8000), LOW)
    results = {}

    def query():
        results["name"] = yield from manager.get(
            node.machine.net.ip, f"{ES_MIB_BASE}.1.1"
        )
        results["walk"] = yield from manager.walk(node.machine.net.ip)
        results["state"] = yield from manager.get(
            node.machine.net.ip, f"{ES_MIB_BASE}.2.1"
        )

    console.machine.spawn(query())
    system.run(until=4.0)
    assert results["name"] == node.speaker.name.encode()
    assert len(results["walk"]) >= 9
    assert results["state"] == b"playing"


def test_aecp_set_gain():
    """Volume is an AECP SET_CONTROL transaction: the agent applies the
    gain and echoes it, the registry's descriptor follows, and a
    malformed value is refused without touching the speaker."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("x", params=LOW)
    node = system.add_speaker(channel=ch)
    system.advertise_speaker(node)
    controller = system.add_controller(check_interval=0.1,
                                       auto_enumerate=True)
    outcome = {}

    def setter():
        yield Sleep(0.5)
        outcome["ok"] = yield WaitProcess(
            controller.set_gain(node.entity_id, 0.5)
        )
        outcome["bad"] = yield WaitProcess(
            controller.set_gain(node.entity_id, float("nan"))
        )

    node.machine.spawn(setter())
    system.run(until=3.0)
    assert outcome["ok"] is True
    assert node.speaker.gain == 0.5
    rec = controller.entities[node.entity_id]
    assert rec.descriptor["gain"] == "0.5"
    assert outcome["bad"] is False
    assert controller.stats.gain_sets == 1
    assert controller.stats.gain_set_failures == 1
    # a refusal is an answer: no resend
    assert controller.stats.gain_set_retries == 0


def test_snmp_set_is_refused():
    """The MIB is a read-only view: an SNMP SET is answered ``badop`` and
    changes nothing."""
    system = EthernetSpeakerSystem()
    ch = system.add_channel("x", params=LOW)
    node = system.add_speaker(channel=ch)
    SnmpAgent(node.machine, build_es_mib(node.speaker, node)).start()
    console = system.add_producer(name="nms", housekeeping=False)
    manager = SnmpManager(console.machine)
    outcome = {}

    def setter():
        outcome["reply"] = yield from manager._request(
            node.machine.net.ip,
            {"op": b"set", "oid": f"{ES_MIB_BASE}.3.1".encode(),
             "value": b"0.5"},
        )
        outcome["gain"] = yield from manager.get(
            node.machine.net.ip, f"{ES_MIB_BASE}.3.1"
        )

    console.machine.spawn(setter())
    system.run(until=2.0)
    assert outcome["reply"] == {"status": b"badop"}
    assert node.speaker.gain == 1.0
    assert outcome["gain"] == b"1.0"
    assert not hasattr(manager, "set")


# -- auto volume -----------------------------------------------------------------------


def run_volume_scenario(mode, ambient_level, seconds=8.0):
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("pa", params=LOW, compress="never")
    system.add_rebroadcaster(producer, ch)
    room = Room(AmbientProfile.constant(ambient_level), coupling=0.5)
    node = system.add_speaker(channel=ch, room=room)
    controller = AutoVolumeController(node.speaker, room, mode=mode)
    controller.start()
    content = speech_like(seconds, 8000, seed=4, amplitude=0.6)
    system.play_pcm(producer, content, LOW, source_paced=True)
    system.run(until=seconds + 2.0)
    return node, controller


def test_music_ducks_in_quiet_room():
    quiet_node, _ = run_volume_scenario("music", ambient_level=0.02)
    noisy_node, _ = run_volume_scenario("music", ambient_level=0.5)
    assert quiet_node.speaker.gain < noisy_node.speaker.gain


def test_announcement_rides_over_noise():
    _, quiet = run_volume_scenario("announcement", ambient_level=0.02)
    node, noisy = run_volume_scenario("announcement", ambient_level=0.6)
    assert noisy.history[-1][2] > quiet.history[-1][2]
    # the announcement ends up audible: output above the ambient
    assert node.speaker.last_output_rms > 0.3


def test_normalisation_equalises_source_levels():
    """'audio segments recorded at different volume levels produce the
    same sound levels'."""
    outputs = {}
    for amp in (0.15, 0.6):
        system = EthernetSpeakerSystem()
        producer = system.add_producer()
        ch = system.add_channel("pa", params=LOW, compress="never")
        system.add_rebroadcaster(producer, ch)
        room = Room(AmbientProfile.constant(0.2), coupling=0.5)
        node = system.add_speaker(channel=ch, room=room)
        AutoVolumeController(node.speaker, room, mode="music").start()
        content = sine(300, 8.0, 8000, amplitude=amp)
        system.play_pcm(producer, content, LOW, source_paced=True)
        system.run(until=10.0)
        outputs[amp] = node.speaker.last_output_rms
    ratio = outputs[0.6] / outputs[0.15]
    assert 0.6 < ratio < 1.7  # within ~x1.7 despite a 4x source spread


def test_controller_estimates_ambient_through_mic():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("pa", params=LOW)
    room = Room(AmbientProfile.constant(0.3), coupling=0.5)
    node = system.add_speaker(channel=ch, room=room)
    controller = AutoVolumeController(node.speaker, room)
    assert controller.estimate_ambient() == pytest.approx(0.3, abs=0.02)


def test_invalid_mode_rejected():
    system = EthernetSpeakerSystem()
    ch = system.add_channel("pa", params=LOW)
    node = system.add_speaker(channel=ch)
    with pytest.raises(ValueError):
        AutoVolumeController(node.speaker, Room(), mode="party")
