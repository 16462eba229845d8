"""Per-layer metrics: simulated-domain counters read off the system, host
times read off a :class:`~layertrace.LayerTracer`, and the layer table."""

from __future__ import annotations

import json
from pathlib import Path

from layertrace import LAYERS

#: span -> layer it is nested under, for the table's ``calls`` column
SPAN_LAYER = {
    "codec.encode": "codec", "codec.decode": "codec",
    "protocol.parse": "protocol", "wan.fec": "wan",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_counts(job, result: dict) -> dict:
    """Simulated-domain per-layer counters of one finished run."""
    system = job.system
    listeners = job.listeners()

    def total(field: str) -> int:
        return sum(getattr(l.stats, field) * l.members for l in listeners)

    enc, dec = system.encode_cache.stats, system.decode_cache.stats
    hops = system.wan_hops
    played = total("played")
    recovered = sum(h.stats.recovered for h in hops)
    abandoned = sum(h.stats.abandoned for h in hops)
    return {
        "codec.encode_cache.hit_ratio": _ratio(enc.hits, enc.hits + enc.misses),
        "codec.decode_cache.hit_ratio": _ratio(dec.hits, dec.hits + dec.misses),
        "origin.blocks_sent": sum(rb.stats.data_sent
                                  for rb in system.rebroadcasters),
        "sim.events": system.sim.events_executed,
        "sim.events_per_block": _ratio(system.sim.events_executed, played),
        "speaker.rx": total("data_rx"),
        "speaker.played": played,
        "speaker.dropped": sum(total(f) for f in (
            "late_dropped", "waiting_dropped", "dup_dropped",
            "reorder_dropped", "decode_failed", "epoch_dropped",
        )),
        "speaker.resyncs": total("resyncs") + total("epoch_resyncs"),
        "cohort.spills": sum(c.spills for c in system.cohorts),
        "lan.frames": sum(seg.stats.frames_sent for seg in system.lans),
        "lan.bytes": sum(seg.stats.bytes_sent for seg in system.lans),
        "lan.lost": (
            sum(seg.stats.receiver_losses + seg.stats.frames_dropped
                for seg in system.lans)
            + sum(f.stats.lost for f in system.fault_injectors)
        ),
        "lan.socket_drops": total("socket_data_drops"),
        "wan.frames": sum(h.link.sent for h in hops),
        "wan.bytes": sum(h.link.bytes_sent for h in hops),
        "wan.parity_bytes_ratio": _ratio(
            sum(h.fec.parity_bytes for h in hops),
            sum(h.fec.data_bytes for h in hops),
        ),
        "wan.repair_ratio": _ratio(recovered, recovered + abandoned),
        "wan.nacks": sum(h.stats.nacks_sent for h in hops),
        "wan.abandoned": abandoned,
        "mgmt.adverts": sum(a.stats.advertises for a in system.advertisers),
        "mgmt.acmp_connects": sum(c.stats.acmp_connects
                                  for c in system.controllers),
        "mgmt.expiries": sum(c.stats.expiries for c in system.controllers),
        "mgmt.restarts": sum(s.stats.restarts for s in system.supervisors),
        "max_silence_s": result["max_silence_s"],
        "skew_ms.p50": result["skew_ms.p50"],
        "skew_ms.p99": result["skew_ms.p99"],
    }


def layer_times(tracer, wall_s: float) -> dict:
    """Host-time side of one traced run."""
    return {
        "wall_s": wall_s,
        "unclaimed_s": tracer.unclaimed_s,
        "self_s": {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS},
        "events": {layer: tracer.events.get(layer, 0) for layer in LAYERS},
        "span_calls": dict(tracer.span_calls),
        "span_s": dict(tracer.span_s),
    }


#: per-layer metric -> unit, in ``BENCHMARK.json`` order
UNITS = {
    "codec.encode.calls": "count", "codec.encode.s": "s",
    "codec.decode.calls": "count", "codec.decode.s": "s",
    "codec.encode_cache.hit_ratio": "ratio",
    "codec.decode_cache.hit_ratio": "ratio",
    "origin.blocks_sent": "count", "origin.self_s": "s",
    "sim.events": "count", "sim.self_s": "s",
    "sim.events_per_block": "ratio",
    "speaker.rx": "count", "speaker.self_s": "s", "speaker.played": "count",
    "speaker.dropped": "count", "speaker.resyncs": "count",
    "cohort.spills": "count",
    "kernel.events": "count", "kernel.self_s": "s",
    "lan.frames": "count", "lan.bytes": "bytes", "lan.self_s": "s",
    "lan.lost": "count", "lan.socket_drops": "count",
    "wan.frames": "count", "wan.bytes": "bytes", "wan.self_s": "s",
    "wan.parity_bytes_ratio": "ratio", "wan.repair_ratio": "ratio",
    "wan.nacks": "count", "wan.abandoned": "count",
    "protocol.parse.calls": "count", "protocol.parse.s": "s",
    "mgmt.events": "count", "mgmt.self_s": "s", "mgmt.adverts": "count",
    "mgmt.acmp_connects": "count", "mgmt.expiries": "count",
    "mgmt.restarts": "count",
    "other.self_s": "s",
    "max_silence_s": "s", "skew_ms.p50": "ms", "skew_ms.p99": "ms",
    "trace.wall_s": "s", "trace.unclaimed_s": "s",
    "trace_overhead_x": "x",
}


def per_layer_metrics(rep: dict, overhead: float) -> dict:
    """Per-layer metrics of one traced repetition (the harness passes
    its fastest)."""
    trace = rep["trace"]
    values = dict(rep["layers"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["self_s"][layer]
    for span in SPAN_LAYER:
        values[f"{span}.calls"] = trace["span_calls"].get(span, 0)
        values[f"{span}.s"] = trace["span_s"].get(span, 0.0)
    for layer in ("kernel", "mgmt"):
        values[f"{layer}.events"] = trace["events"][layer]
    values["trace.wall_s"] = trace["wall_s"]
    values["trace.unclaimed_s"] = trace["unclaimed_s"]
    values["trace_overhead_x"] = overhead
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def layer_table(rep: dict) -> list:
    """Rows of (layer, events, span calls, self s, share of wall, bytes)."""
    trace, layers = rep["trace"], rep["layers"]
    wall = trace["wall_s"]
    wire = {"lan": layers["lan.bytes"], "wan": layers["wan.bytes"]}
    rows = []
    for layer in LAYERS:
        calls = sum(n for span, n in trace["span_calls"].items()
                    if SPAN_LAYER.get(span) == layer)
        self_s = trace["self_s"][layer]
        rows.append((layer, trace["events"][layer], calls, self_s,
                     self_s / wall, wire.get(layer, 0)))
    rows.append(("unclaimed", 0, 0, trace["unclaimed_s"],
                 trace["unclaimed_s"] / wall, 0))
    return rows


def print_layer_table(workload: str, rep: dict) -> list:
    rows = layer_table(rep)
    print(f"layer table ({workload}, traced wall "
          f"{rep['trace']['wall_s']:.3f} s):")
    print(f"  {'layer':10s} {'events':>9s} {'calls':>8s} {'self s':>9s} "
          f"{'share':>7s} {'wire bytes':>12s}")
    for layer, events, calls, self_s, share, wire in rows:
        print(f"  {layer:10s} {events:9d} {calls:8d} {self_s:9.4f} "
              f"{share:7.1%} {wire:12d}")
    return rows


def write_layer_table(directory: Path, workload: str, seed: int,
                      rows: list, metrics: dict) -> None:
    directory.mkdir(exist_ok=True)
    path = directory / f"layers-{workload}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "columns": ["layer", "events", "calls", "self_s", "share",
                    "wire_bytes"],
        "rows": rows,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }, indent=2) + "\n")
