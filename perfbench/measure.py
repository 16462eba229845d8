"""Score a finished run from the listeners' side.

Everything here reads the simulated domain only, so it is a pure
function of the workload seed: two runs with one seed must agree on
every number :func:`score` returns, traced or not.

A listener is judged by what it plays.  Its expected blocks are the
positions its channel's origin sent from the moment the harness tuned
it (boot, or when it sent the ACMP CONNECT) to the end of the stream; the
``pipeline_report`` ledger is recorded beside them but not used for
them, because it counts a parked listener as an expected receiver from
t=0.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List

import numpy as np

from repro.core.protocol import DataPacket, parse_packet


def sent_positions(job) -> Dict[int, List[tuple]]:
    """channel id -> [(send time, stream position)] of every data packet
    the origin sent, in send order."""
    out = {}
    for channel_id, log in job.sent.items():
        rows = []
        for t, wire in log:
            packet = parse_packet(wire)
            if isinstance(packet, DataPacket):
                rows.append((t, packet.play_at))
        out[channel_id] = rows
    return out


def emission_times(stats, sink) -> Dict[float, float]:
    """Stream position -> DAC emission time of its first byte.

    The mapping :meth:`EthernetSpeakerSystem.skew_report` uses (write
    offsets through ``SpeakerSink.time_at_bytes``, silence skipped), with
    a bisect over cumulative record offsets instead of a linear walk per
    position.
    """
    starts, records = [], []
    seen = 0
    for time, data, is_silence, params in sink.records:
        if is_silence:
            continue
        starts.append(seen)
        records.append((time, len(data), params))
        seen += len(data)
    out = {}
    for position, offset in stats.write_offsets:
        i = bisect.bisect_right(starts, offset) - 1
        if i < 0:
            continue
        time, size, params = records[i]
        if offset < starts[i] + size:
            out[position] = time + params.duration_of(offset - starts[i])
    return out


def skew_ms(listeners) -> List[float]:
    """Per common stream position, the spread of DAC emission times
    across the per-object listeners of one channel (paper §3.2), pooled
    over channels, in ms."""
    by_channel: Dict[int, list] = {}
    for listener in listeners:
        if listener.per_object:
            by_channel.setdefault(listener.channel_id, []).append(listener)
    spreads = []
    for group in by_channel.values():
        if len(group) < 2:
            continue
        logs = [emission_times(l.stats, l.sink) for l in group]
        common = set(logs[0]).intersection(*logs[1:])
        for position in sorted(common):
            times = [log[position] for log in logs]
            spreads.append((max(times) - min(times)) * 1e3)
    return spreads


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def corruption_budget(system) -> int:
    """Listener-blocks one-byte corruption may have forged: every
    corrupted LAN copy reaches one listener, every corrupted WAN frame
    the whole subtree below its hop."""
    budget = sum(f.stats.corrupted for f in system.fault_injectors)
    for hop in system.wan_hops:
        if hop.link.faults is None:
            continue
        below = sum(
            1 for n in system.speakers
            for leaf in hop.child.leaf_lans if n.lan is leaf.segment
        )
        budget += hop.link.faults.stats.corrupted * below
    return budget


def score(job) -> dict:
    """The run's simulated-domain results and its correctness verdict."""
    system = job.system
    sent = sent_positions(job)
    listeners = job.listeners()
    problems: List[str] = []
    expected_total = played_total = forged_total = 0
    longest = 0.0
    for listener in listeners:
        rows = sent.get(listener.channel_id, [])
        sent_set = {p for _, p in rows}
        block = float(np.median(np.diff([p for _, p in rows])))
        played = [p for p, _ in listener.stats.play_log]
        genuine = [p for p in played if p in sent_set]
        forged_total += (len(played) - len(genuine)) * listener.members
        # a re-anchor on a control packet may restart the schedule; any
        # other step back in stream position is a playout bug
        backward = sum(1 for a, b in zip(genuine, genuine[1:]) if b <= a)
        anchors = listener.stats.resyncs + listener.stats.epoch_resyncs
        if backward > anchors:
            problems.append(
                f"{listener.name}: play log steps back {backward} times "
                f"across {anchors} re-anchors"
            )
        heard = set(genuine)
        expected = [p for t, p in rows if t >= listener.join_at]
        run = worst = 0
        for position in expected:
            run = 0 if position in heard else run + 1
            worst = max(worst, run)
        longest = max(longest, worst * block)
        hits = sum(1 for p in expected if p in heard)
        expected_total += len(expected) * listener.members
        played_total += hits * listener.members
    budget = corruption_budget(system)
    if forged_total > budget:
        problems.append(
            f"{forged_total} listener-blocks played at positions the origin "
            f"never sent (corruption budget {budget})"
        )
    report = system.pipeline_report()
    if job.ledger_gated and not report.conservation_ok:
        problems.append(
            f"conservation ledger open: residual "
            f"{report.conservation_residual}"
        )
    spreads = skew_ms(listeners)
    wire_bytes = (sum(seg.stats.bytes_sent for seg in system.lans)
                  + sum(hop.link.bytes_sent for hop in system.wan_hops))
    return {
        "listeners": sum(l.members for l in listeners),
        "expected": expected_total,
        "played": played_total,
        "forged": forged_total,
        "played_ratio": played_total / expected_total,
        "max_silence_s": longest,
        "skew_ms.p50": _percentile(spreads, 50),
        "skew_ms.p99": _percentile(spreads, 99),
        "skew_positions": len(spreads),
        "wire_kB_per_sim_s": wire_bytes / 1e3 / job.horizon,
        "events": system.sim.events_executed,
        "conservation_ok": report.conservation_ok,
        "conservation_residual": report.conservation_residual,
        "problems": problems,
    }


def channel_digests(job) -> Dict[int, str]:
    """channel id -> SHA-256 of the non-silent DAC bytes its listeners
    emitted.  Every listener on a channel must emit the same bytes."""
    out: Dict[int, str] = {}
    for listener in job.listeners():
        h = hashlib.sha256()
        for _, data, is_silence, _ in listener.sink.records:
            if not is_silence:
                h.update(data)
        digest = h.hexdigest()
        if out.setdefault(listener.channel_id, digest) != digest:
            out[listener.channel_id] = "listeners disagree"
    return out
