"""Listener census + channel suspension (§4.3) and signed catalogs (§5.1)."""

import pytest

from repro.audio import AudioEncoding, AudioParams, sine
from repro.core import EthernetSpeakerSystem
from repro.mgmt import (
    CATALOG_GROUP,
    CATALOG_PORT,
    CatalogAnnouncer,
    CatalogListener,
)
from repro.security import HmacAuthenticator, Impostor
from repro.sim import Sleep

LOW = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)


# -- census -------------------------------------------------------------------------


def census_fixture(n_tuned, n_other):
    system = EthernetSpeakerSystem()
    system.add_producer()
    ch = system.add_channel("pa", params=LOW, compress="never")
    other = system.add_channel("other", params=LOW, compress="never")
    for channel, n in ((ch, n_tuned), (other, n_other)):
        for _ in range(n):
            system.advertise_speaker(system.add_speaker(channel=channel))
    controller = system.add_controller(check_interval=0.1)
    return system, controller, ch


@pytest.mark.parametrize("n_tuned,n_other", [(0, 2), (3, 2), (7, 0)])
def test_census_counts_tuned_speakers(n_tuned, n_other):
    system, controller, ch = census_fixture(n_tuned, n_other)
    system.run(until=2.0)
    assert controller.census(ch.channel_id) == n_tuned


def test_census_driven_suspension_saves_bandwidth():
    """§4.3: 'it enables the server to suspend transmission of a
    particular channel, if it notices that there are no listeners'."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("idle", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, ch)
    controller = system.add_controller(check_interval=0.1)
    system.play_synthetic(producer, 20.0, LOW)

    def operator():
        yield Sleep(2.0)
        if controller.census(ch.channel_id) == 0:
            rb.suspend()

    controller.machine.spawn(operator())
    system.run(until=25.0)
    assert rb.stats.suspended_blocks > 100
    # transmission stopped shortly after the census
    sent_window = rb.stats.data_sent * producer.vad.slave.blocksize
    assert rb.stats.data_sent < 80  # ~2.5 s worth, not 20 s


def test_resume_after_suspension_resyncs_speakers():
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("pa", params=LOW, compress="never")
    rb = system.add_rebroadcaster(producer, ch, control_interval=0.5)
    node = system.add_speaker(channel=ch)
    system.play_synthetic(producer, 20.0, LOW)
    system.sim.schedule(4.0, rb.suspend)
    system.sim.schedule(10.0, rb.resume)
    system.run(until=22.0)
    st = node.stats
    assert rb.stats.suspended_blocks > 0
    assert st.played > 0
    # the speaker kept playing after the resume: blocks with stream
    # positions past the suspension gap were committed
    last_pos = max(p for p, _ in st.play_log)
    assert last_pos > 15.0
    # nothing from the suspension window leaked onto the wire
    positions = sorted(p for p, _ in st.play_log)
    gap = [p for p in positions if 4.5 < p < 9.5]
    assert gap == []


# -- signed catalog -------------------------------------------------------------------


def test_signed_catalog_rejects_impostor():
    """§5.1 done properly: announcements signed, impostor unsigned."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("lobby", params=LOW)
    auth = HmacAuthenticator(b"catalog-key-0123456789abcdef!!!!")
    announcer = CatalogAnnouncer(
        producer.machine, interval=0.5, authenticator=auth
    )
    announcer.add_channel(ch)
    announcer.start()
    attacker = system.add_producer(name="evil", housekeeping=False)
    Impostor(attacker.machine, CATALOG_GROUP, CATALOG_PORT,
             interval=0.3).start()
    node = system.add_speaker(channel=ch, start=False)
    listener = CatalogListener(node.machine, verifier=auth)
    listener.start()
    system.run(until=4.0)
    names = {e.name for e in listener.live_channels()}
    assert names == {"lobby"}
    assert listener.rejected >= 10  # every impostor announcement refused


def test_unsigned_listener_would_accept_impostor():
    """Control: without verification the fake channel shows up."""
    system = EthernetSpeakerSystem()
    producer = system.add_producer()
    ch = system.add_channel("lobby", params=LOW)
    announcer = CatalogAnnouncer(producer.machine, interval=0.5)
    announcer.add_channel(ch)
    announcer.start()
    attacker = system.add_producer(name="evil", housekeeping=False)
    Impostor(attacker.machine, CATALOG_GROUP, CATALOG_PORT,
             interval=0.3).start()
    node = system.add_speaker(channel=ch, start=False)
    listener = CatalogListener(node.machine)
    listener.start()
    system.run(until=4.0)
    names = {e.name for e in listener.live_channels()}
    assert "evil-stream" in names  # the danger the paper warns about
