"""Batched fan-out delivery: one heap event per frame, same semantics.

On a jitter-free link every matching receiver hears a multicast frame at
the same instant, so the segment/switch schedules ONE event that fans
out to all of them instead of one event per copy.  These tests pin the
contract against the per-receiver oracle (``tests/oracles.py``, which
splits every batch into one event per receiver): virtual arrival times,
receiver sets, and seeded loss draws are bit-identical; jitter and fault
injectors schedule per receiver; and the batch sizes show up in
telemetry.
"""

import numpy as np
import pytest

from repro.core import EthernetSpeakerSystem
from repro.audio import CD_QUALITY, music
from repro.metrics.telemetry import Telemetry
from repro.net import Datagram, EthernetSegment, Nic
from repro.net.faults import FaultInjector
from repro.net.switch import SwitchedSegment
from repro.sim import Simulator
from tests.oracles import per_receiver_delivery


def build_lan(n_receivers, *, switched=False, telemetry=None,
              batch_delivery=True, **kw):
    sim = Simulator()
    if not batch_delivery:
        per_receiver_delivery(sim)
    if telemetry is not None:
        sim.set_telemetry(telemetry)
    if switched:
        link = SwitchedSegment(sim, latency=0.0, telemetry=telemetry, **kw)
    else:
        link = EthernetSegment(sim, latency=0.0, **kw)
    arrivals = []
    for i in range(n_receivers):
        nic = Nic(link, f"10.0.0.{i + 2}")
        nic.join_group("239.1.1.1")
        nic.rx_handler = (
            lambda d, name=nic.ip: arrivals.append((sim.now, name, d.payload))
        )
    return sim, link, arrivals


def blast(sim, link, frames=20):
    for i in range(frames):
        sim.schedule(
            i * 0.001, link.transmit,
            Datagram("10.0.0.1", 1, "239.1.1.1", 5000, bytes([i]) * 50),
        )
    sim.run()


@pytest.mark.parametrize("switched", [False, True])
def test_batched_matches_unbatched_exactly(switched):
    logs = {}
    for batched in (False, True):
        sim, link, arrivals = build_lan(
            8, switched=switched, batch_delivery=batched
        )
        blast(sim, link)
        logs[batched] = arrivals
    assert logs[True] == logs[False]
    assert len(logs[True]) == 8 * 20


@pytest.mark.parametrize("switched", [False, True])
def test_batched_matches_unbatched_under_seeded_loss(switched):
    # loss draws happen in NIC order on both paths, so a seeded run loses
    # the exact same copies whether deliveries are batched or not
    logs = {}
    for batched in (False, True):
        sim, link, arrivals = build_lan(
            8, switched=switched, batch_delivery=batched,
            loss_rate=0.3, seed=42,
        )
        blast(sim, link, frames=50)
        logs[batched] = arrivals
    assert logs[True] == logs[False]
    assert 0 < len(logs[True]) < 8 * 50


@pytest.mark.parametrize("switched", [False, True])
def test_fanout_follows_nic_order_and_seeded_loss_draws(switched):
    # the oracle above splits the links' own batches, so pin the batch
    # contents independently: one loss draw per receiver copy in NIC
    # order from the link's seeded generator, survivors in NIC order
    n, frames, rate, seed = 8, 50, 0.3, 42
    sim, link, arrivals = build_lan(n, switched=switched,
                                    loss_rate=rate, seed=seed)
    blast(sim, link, frames=frames)
    rng = np.random.default_rng(seed)
    expected = [
        (f, f"10.0.0.{i + 2}")
        for f in range(frames) for i in range(n)
        if not rng.random() < rate
    ]
    assert [(p[0], name) for _, name, p in arrivals] == expected


def test_batching_executes_fewer_events():
    counts = {}
    for batched in (False, True):
        sim, link, arrivals = build_lan(32, batch_delivery=batched)
        blast(sim, link, frames=10)
        counts[batched] = sim.events_executed
        assert len(arrivals) == 32 * 10
    # one delivery event per frame instead of one per receiver copy
    assert counts[True] <= counts[False] - 10 * (32 - 1)


def test_jitter_falls_back_to_per_receiver():
    tel = Telemetry()
    sim, link, arrivals = build_lan(4, jitter=0.01, seed=1, telemetry=tel)
    blast(sim, link, frames=5)
    assert len(arrivals) == 4 * 5
    # per-frame arrival instants differ across receivers under jitter...
    times = {t for t, _, p in arrivals if p == bytes([0]) * 50}
    assert len(times) > 1
    # ...and nothing was counted as a batch
    assert "net.fanout_batch" not in tel.histograms


def test_fault_injector_falls_back_and_still_applies():
    sim, link, arrivals = build_lan(4)
    faults = FaultInjector(sim, loss_rate=0.5, seed=3)
    faults.attach(link)
    blast(sim, link, frames=25)
    # the injector interposed on every copy: whatever it killed never
    # arrived, and kills + arrivals account for the full fan-out
    assert faults.stats.offered == 4 * 25
    assert faults.stats.lost > 0
    assert faults.stats.lost + len(arrivals) == 4 * 25


@pytest.mark.parametrize("switched", [False, True])
def test_fanout_batch_histogram_records_group_sizes(switched):
    tel = Telemetry()
    sim, link, arrivals = build_lan(
        8, switched=switched, telemetry=tel
    )
    blast(sim, link, frames=10)
    assert len(arrivals) == 8 * 10
    hist = tel.histograms["net.fanout_batch"]
    assert hist.count == 10          # one batch per frame
    assert hist.vmin == hist.vmax == 8


def test_unicast_single_receiver_still_batches_cheaply():
    tel = Telemetry()
    sim = Simulator()
    sim.set_telemetry(tel)
    lan = EthernetSegment(sim, latency=0.0)
    a = Nic(lan, "10.0.0.1")
    b = Nic(lan, "10.0.0.2")
    got = []
    b.rx_handler = got.append
    lan.transmit(Datagram("10.0.0.1", 1, "10.0.0.2", 2, b"hi"), sender=a)
    sim.run()
    assert len(got) == 1
    assert tel.histograms["net.fanout_batch"].vmax == 1


def _run_system(batched):
    system = EthernetSpeakerSystem(telemetry=False)
    if not batched:
        per_receiver_delivery(system.sim)
    producer = system.add_producer()
    channel = system.add_channel("hall", params=CD_QUALITY,
                                 compress="always")
    system.add_rebroadcaster(producer, channel)
    nodes = [system.add_speaker(channel=channel) for _ in range(4)]
    system.play_pcm(producer, music(1.0, 44100, seed=7), CD_QUALITY)
    system.run(until=4.0)
    return nodes


def test_full_system_playout_identical_with_batching():
    nodes_on = _run_system(batched=True)
    nodes_off = _run_system(batched=False)
    for on, off in zip(nodes_on, nodes_off):
        assert on.stats.played == off.stats.played > 0
        assert len(on.sink.records) == len(off.sink.records)
        for (t1, d1, s1, p1), (t2, d2, s2, p2) in zip(
            on.sink.records, off.sink.records
        ):
            assert t1 == t2
            assert bytes(d1) == bytes(d2)
            assert s1 == s2 and p1 == p2
