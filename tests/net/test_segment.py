"""Segment, NIC, addressing: delivery semantics and the bandwidth model."""

import pytest

from repro.net import (
    BandwidthMonitor,
    Datagram,
    EthernetSegment,
    Nic,
    is_multicast,
    wire_bytes,
)
from repro.net.addr import ETHER_OVERHEAD, UDP_IP_OVERHEAD, MTU
from repro.net.switch import SwitchedSegment
from repro.sim import Simulator


def make_lan(sim, **kw):
    kw.setdefault("latency", 0.0)
    return EthernetSegment(sim, **kw)


class Sink:
    def __init__(self, nic):
        self.got = []
        nic.rx_handler = lambda d: self.got.append(d)


def test_is_multicast():
    assert is_multicast("224.0.0.1")
    assert is_multicast("239.255.0.5")
    assert not is_multicast("223.9.9.9")
    assert not is_multicast("10.0.0.1")
    assert not is_multicast("garbage")


def test_wire_bytes_small_packet():
    assert wire_bytes(100) == 100 + UDP_IP_OVERHEAD + ETHER_OVERHEAD


def test_wire_bytes_fragmented_packet():
    big = 4000
    cost = wire_bytes(big)
    assert cost > big + UDP_IP_OVERHEAD + ETHER_OVERHEAD
    # three fragments' worth of header overhead
    assert cost >= big + 3 * (20 + ETHER_OVERHEAD)


def test_unicast_delivered_to_target_only():
    sim = Simulator()
    lan = make_lan(sim)
    a = Nic(lan, "10.0.0.1")
    b = Nic(lan, "10.0.0.2")
    c = Nic(lan, "10.0.0.3")
    sb, sc = Sink(b), Sink(c)
    lan.transmit(Datagram("10.0.0.1", 1, "10.0.0.2", 2, b"hi"), sender=a)
    sim.run()
    assert len(sb.got) == 1
    assert len(sc.got) == 0


def test_multicast_delivered_to_joined_nics_only():
    sim = Simulator()
    lan = make_lan(sim)
    a = Nic(lan, "10.0.0.1")
    b = Nic(lan, "10.0.0.2")
    c = Nic(lan, "10.0.0.3")
    b.join_group("239.1.1.1")
    sb, sc = Sink(b), Sink(c)
    lan.transmit(Datagram("10.0.0.1", 1, "239.1.1.1", 2, b"x"), sender=a)
    sim.run()
    assert len(sb.got) == 1
    assert len(sc.got) == 0


def test_sender_does_not_hear_own_frame():
    sim = Simulator()
    lan = make_lan(sim)
    a = Nic(lan, "10.0.0.1")
    a.join_group("239.1.1.1")
    sa = Sink(a)
    lan.transmit(Datagram("10.0.0.1", 1, "239.1.1.1", 2, b"x"), sender=a)
    sim.run()
    assert sa.got == []


def test_broadcast_reaches_everyone():
    sim = Simulator()
    lan = make_lan(sim)
    nics = [Nic(lan, f"10.0.0.{i}") for i in range(1, 5)]
    sinks = [Sink(n) for n in nics]
    lan.transmit(
        Datagram("10.0.0.9", 1, "255.255.255.255", 2, b"b"), sender=None
    )
    sim.run()
    assert all(len(s.got) == 1 for s in sinks)


def test_vlan_isolation():
    """§5.1: speakers in their own VLAN do not see other VLANs' frames."""
    sim = Simulator()
    lan = make_lan(sim)
    speaker = Nic(lan, "10.0.0.2", vlan=10)
    speaker.join_group("239.1.1.1")
    sink = Sink(speaker)
    attacker_frame = Datagram("10.0.0.66", 1, "239.1.1.1", 2, b"evil", vlan=1)
    lan.transmit(attacker_frame)
    good_frame = Datagram("10.0.0.1", 1, "239.1.1.1", 2, b"good", vlan=10)
    lan.transmit(good_frame)
    sim.run()
    assert [d.payload for d in sink.got] == [b"good"]


def test_promiscuous_nic_sees_everything():
    sim = Simulator()
    lan = make_lan(sim)
    snooper = Nic(lan, "10.0.0.9", promiscuous=True)
    sink = Sink(snooper)
    lan.transmit(Datagram("10.0.0.1", 1, "10.0.0.2", 2, b"a"))
    lan.transmit(Datagram("10.0.0.1", 1, "239.1.1.1", 2, b"b"))
    sim.run()
    assert len(sink.got) == 2


def test_join_group_validates_address():
    sim = Simulator()
    nic = Nic(make_lan(sim), "10.0.0.1")
    with pytest.raises(ValueError):
        nic.join_group("10.0.0.255")


def test_transmission_takes_wire_time():
    sim = Simulator()
    lan = make_lan(sim, bandwidth_bps=10e6)
    a = Nic(lan, "10.0.0.1")
    b = Nic(lan, "10.0.0.2")
    sink = Sink(b)
    arrivals = []
    b.rx_handler = lambda d: arrivals.append(sim.now)
    payload = bytes(1000)
    lan.transmit(Datagram("10.0.0.1", 1, "10.0.0.2", 2, payload), sender=a)
    sim.run()
    expected = wire_bytes(1000) * 8 / 10e6
    assert arrivals[0] == pytest.approx(expected)


def test_wire_serialises_back_to_back_frames():
    sim = Simulator()
    lan = make_lan(sim, bandwidth_bps=10e6)
    b = Nic(lan, "10.0.0.2")
    arrivals = []
    b.rx_handler = lambda d: arrivals.append(sim.now)
    for _ in range(3):
        lan.transmit(Datagram("10.0.0.1", 1, "10.0.0.2", 2, bytes(1000)))
    sim.run()
    gap = wire_bytes(1000) * 8 / 10e6
    assert arrivals[1] - arrivals[0] == pytest.approx(gap)
    assert arrivals[2] - arrivals[1] == pytest.approx(gap)


def test_backlog_overflow_drops_frames():
    sim = Simulator()
    lan = make_lan(sim, bandwidth_bps=10e6, max_backlog=5)
    ok = 0
    for _ in range(50):
        ok += lan.transmit(Datagram("10.0.0.1", 1, "10.0.0.2", 2, bytes(1400)))
    assert ok < 50
    assert lan.stats.frames_dropped == 50 - ok


@pytest.mark.parametrize("switched", [False, True])
def test_backlog_bound_counts_frames_not_bytes(switched):
    """A small frame offered behind fewer than ``max_backlog`` large
    frames is accepted: the bound counts frames, so a control packet
    queued behind a few full-size data frames is not read as a backlog
    of hundreds of its own size."""
    sim = Simulator()
    if switched:
        link = SwitchedSegment(sim, port_bps=10e6, latency=0.0,
                               max_egress_backlog=5)
    else:
        link = make_lan(sim, bandwidth_bps=10e6, max_backlog=5)
    sender = Nic(link, "10.0.0.1")
    Nic(link, "10.0.0.2")
    for _ in range(4):
        assert link.transmit(
            Datagram("10.0.0.1", 1, "10.0.0.2", 2, bytes(1400)), sender
        )
    assert link.transmit(
        Datagram("10.0.0.1", 1, "10.0.0.2", 2, bytes(100)), sender
    )
    assert link.stats.frames_dropped == 0


def test_loss_rate_drops_proportionally():
    sim = Simulator()
    lan = make_lan(sim, loss_rate=0.3, seed=42)
    b = Nic(lan, "10.0.0.2")
    sink = Sink(b)
    for i in range(500):
        sim.schedule(
            i * 0.001,
            lan.transmit,
            Datagram("10.0.0.1", 1, "10.0.0.2", 2, b"x"),
        )
    sim.run()
    assert 280 <= len(sink.got) <= 420


def test_jitter_spreads_arrivals():
    sim = Simulator()
    lan = make_lan(sim, jitter=0.01, seed=1)
    b = Nic(lan, "10.0.0.2")
    c = Nic(lan, "10.0.0.3")
    times = {}
    b.rx_handler = lambda d: times.setdefault("b", sim.now)
    c.rx_handler = lambda d: times.setdefault("c", sim.now)
    lan.transmit(Datagram("10.0.0.1", 1, "255.255.255.255", 2, b"x"))
    sim.run()
    assert times["b"] != times["c"]


def test_zero_jitter_is_uniform_arrival():
    """The paper's §3.2 assumption: everyone hears multicast at once."""
    sim = Simulator()
    lan = make_lan(sim, jitter=0.0)
    times = []
    for i in range(2, 6):
        nic = Nic(lan, f"10.0.0.{i}")
        nic.rx_handler = lambda d, t=times: t.append(sim.now)
    lan.transmit(Datagram("10.0.0.1", 1, "255.255.255.255", 2, b"x"))
    sim.run()
    assert len(set(times)) == 1


def test_bandwidth_monitor_measures_rate():
    sim = Simulator()
    lan = make_lan(sim, bandwidth_bps=100e6)
    mon = BandwidthMonitor(sim, lan)
    payload = bytes(1000)
    # 100 packets over one second
    for i in range(100):
        sim.schedule(i * 0.01, lan.transmit,
                     Datagram("10.0.0.1", 1, "239.1.1.1", 5000, payload))
    sim.run(until=1.0)
    expected_payload_mbps = 100 * 1000 * 8 / 1e6
    assert mon.payload_mbps == pytest.approx(expected_payload_mbps, rel=0.02)
    assert mon.mbps > mon.payload_mbps  # headers cost extra
    assert mon.flow_mbps("239.1.1.1", 5000) == pytest.approx(mon.mbps, rel=0.01)


def test_invalid_segment_params():
    sim = Simulator()
    with pytest.raises(ValueError):
        EthernetSegment(sim, bandwidth_bps=0)
    with pytest.raises(ValueError):
        EthernetSegment(sim, loss_rate=1.5)
