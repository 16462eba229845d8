"""FAN-OUT — adding a listener must be (nearly) free on the host, too.

The paper's producer "does not need to maintain any state for the Ethernet
Speakers" (§2.3): the wire cost of a multicast stream is independent of the
audience size.  The simulator's *host* cost was not — every speaker decoded
every block privately and every receiver copy was its own heap event.  The
fan-out fast path (shared-decode cache + zero-copy parsing + batched
delivery + event free-list) makes host wall-clock scale like the wire.

This benchmark sweeps speakers × stream-seconds on the fast path, races the
headline point (64 speakers × 10 s) against the compat oracle (speakers
built with ``decode_cache=None`` plus the ``per_receiver_delivery`` oracle
from ``tests/oracles.py``), and emits ``BENCH_fanout.json``.  Three gates:

* the fast path must be **>= 3x** faster at the headline point;
* against the committed baseline (``benchmarks/BENCH_fanout_baseline.json``)
  the *normalised* wall-clock per simulated second — fast divided by compat,
  so host speed cancels out — must not regress by more than 25 %;
* the oracle must be the slow path itself, not a cheaper or costlier
  stand-in: it executes exactly the baseline compat arm's simulator
  events, blocks played and packets sent.
"""

import json
import time
from pathlib import Path

from repro.audio import AudioEncoding, AudioParams, music
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from tests.oracles import per_receiver_delivery

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)
SWEEP = [(4, 2.0), (16, 2.0), (64, 2.0), (64, 10.0)]
HEADLINE = (64, 10.0)
MIN_SPEEDUP = 3.0
MAX_NORMALISED_REGRESSION = 1.25

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_fanout.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_fanout_baseline.json"


def run_fanout(speakers, stream_seconds, *, oracle=False):
    system = EthernetSpeakerSystem(telemetry=False)
    speaker_kwargs = {}
    if oracle:
        per_receiver_delivery(system.sim)
        speaker_kwargs["decode_cache"] = None
    producer = system.add_producer()
    channel = system.add_channel("bench", params=PARAMS, compress="always")
    system.add_rebroadcaster(producer, channel)
    for _ in range(speakers):
        system.add_speaker(channel=channel, **speaker_kwargs)
    system.play_pcm(
        producer, music(stream_seconds, PARAMS.sample_rate, seed=3), PARAMS
    )
    start = time.perf_counter()
    system.run(until=stream_seconds + 4.0)
    wall = time.perf_counter() - start
    played = sum(n.stats.played for n in system.speakers)
    packets = sum(rb.stats.data_sent for rb in system.rebroadcasters)
    return {
        "speakers": speakers,
        "stream_seconds": stream_seconds,
        "wall_seconds": round(wall, 4),
        "wall_per_sim_second": round(wall / stream_seconds, 4),
        "events_executed": system.sim.events_executed,
        "events_per_sec": int(system.sim.events_executed / wall),
        "packets_sent": packets,
        "packets_per_sec": int(packets / wall),
        "blocks_played": played,
    }


def test_fanout_scale_and_regression_gate():
    sweep = [run_fanout(n, secs) for n, secs in SWEEP]
    fast = next(
        r for r in sweep
        if (r["speakers"], r["stream_seconds"]) == HEADLINE
    )
    compat = run_fanout(*HEADLINE, oracle=True)

    # the fast path must not change what the audience hears
    assert fast["blocks_played"] == compat["blocks_played"] > 0
    assert fast["packets_sent"] == compat["packets_sent"]

    speedup = compat["wall_seconds"] / fast["wall_seconds"]
    normalised = fast["wall_seconds"] / compat["wall_seconds"]
    result = {
        "params": {
            "encoding": str(PARAMS.encoding.name),
            "sample_rate": PARAMS.sample_rate,
            "channels": PARAMS.channels,
            "compress": "always",
        },
        "sweep": sweep,
        "headline": {
            "speakers": HEADLINE[0],
            "stream_seconds": HEADLINE[1],
            "fast": fast,
            "compat": compat,
            "speedup": round(speedup, 2),
            # host-speed-independent: fast wall over compat wall
            "normalised_wall": round(normalised, 4),
        },
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(ascii_table(
        ["speakers", "sim s", "wall s", "wall/sim s", "events/s",
         "packets/s"],
        [[r["speakers"], r["stream_seconds"], r["wall_seconds"],
          r["wall_per_sim_second"], r["events_per_sec"],
          r["packets_per_sec"]]
         for r in sweep + [compat]],
    ))
    print(f"headline speedup: {speedup:.1f}x "
          f"(gate: >= {MIN_SPEEDUP}x)")

    assert speedup >= MIN_SPEEDUP, (
        f"fan-out fast path only {speedup:.2f}x faster than the "
        f"compatibility path at {HEADLINE[0]} speakers x "
        f"{HEADLINE[1]} s (need >= {MIN_SPEEDUP}x)"
    )

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        for key in ("events_executed", "blocks_played", "packets_sent"):
            assert compat[key] == baseline["headline"]["compat"][key], (
                f"compat oracle {key} {compat[key]} differs from the "
                f"baseline compat arm's "
                f"{baseline['headline']['compat'][key]}"
            )
        base_norm = baseline["headline"]["normalised_wall"]
        limit = base_norm * MAX_NORMALISED_REGRESSION
        print(f"normalised wall: {normalised:.4f} "
              f"(baseline {base_norm:.4f}, limit {limit:.4f})")
        assert normalised <= limit, (
            f"normalised wall-clock per simulated second regressed "
            f">25% vs baseline: {normalised:.4f} > {limit:.4f}"
        )
