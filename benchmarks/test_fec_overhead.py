"""FEC OVERHEAD — the price of zero-reverse-traffic loss recovery.

Application-layer FEC trades a fixed forward overhead (``r/k`` parity
frames, each the size of the largest member plus a ~50-byte group
header) for repair without a reverse path.  This benchmark measures the
trade on a live relay tree:

* a **repair-rate-vs-loss-rate sweep**: GE burst loss swept across a
  ``recovery="fec"`` hop, recording the fraction of lost data frames
  FEC reconstructed, the fraction abandoned as holes, and the parity
  overhead as a percentage of protected data bytes;
* a **recovery-ladder comparison** at the headline loss rate — ``none``
  / ``nack`` / ``fec`` / ``fec+nack`` on the same seeded loss pattern —
  the table behind ``docs/performance.md``'s ladder guidance (forward
  overhead vs reverse-path traffic vs residual holes);
* the regression gate: **events per played block** on the headline FEC
  run is deterministic per seed and compared against the committed
  ``benchmarks/BENCH_fec_baseline.json`` with a 25 % allowance.

Emits ``BENCH_fec.json`` (uploaded by the ``fec`` entry of the CI
``bench`` matrix job).
"""

import json
import time
from pathlib import Path

from repro.audio import AudioEncoding, AudioParams, music
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table, percent

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)
STREAM_SECONDS = 8.0

FEC_GEOMETRY = dict(fec_k=4, fec_r=2, fec_interleave=2)
LOSS_SWEEP = [0.0, 0.02, 0.05, 0.10, 0.20]
HEADLINE_LOSS = 0.10
LADDER = ["none", "nack", "fec", "fec+nack"]
MAX_EVENTS_REGRESSION = 1.25

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_fec.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_fec_baseline.json"


def run_hop(recovery, loss_rate):
    system = EthernetSpeakerSystem(seed=1, telemetry=False)
    producer = system.add_producer()
    channel = system.add_channel("bench", params=PARAMS, compress="always")
    rb = system.add_rebroadcaster(producer, channel)
    wan_faults = (
        dict(loss_rate=loss_rate, burst_length=2.0, seed=17)
        if loss_rate else None
    )
    relay = system.add_relay(
        rb, name="regional", latency=0.030, recovery=recovery,
        wan_faults=wan_faults, **FEC_GEOMETRY,
    )
    leaf = system.add_leaf_lan(relay, channel, name="leaf")
    speakers = [system.add_speaker(channel=channel, lan=leaf)
                for _ in range(2)]
    system.play_pcm(
        producer, music(STREAM_SECONDS, PARAMS.sample_rate, seed=3), PARAMS
    )
    start = time.perf_counter()
    system.run(until=STREAM_SECONDS + 4.0)
    wall = time.perf_counter() - start

    played = sum(n.stats.played for n in speakers)
    assert played > 0, "leaf never played"
    report = system.pipeline_report()
    assert report.conservation_ok, (
        f"ledger open at {recovery}/{loss_rate}: "
        f"residual={report.conservation_residual}"
    )
    hop = system.wan_hops[0]
    inj_lost = hop.link.faults.stats.lost if hop.link.faults else 0
    return {
        "recovery": recovery,
        "loss_rate": loss_rate,
        "stream_seconds": STREAM_SECONDS,
        "wall_seconds": round(wall, 4),
        "events_executed": system.sim.events_executed,
        "blocks_played": played,
        "events_per_played": round(system.sim.events_executed / played, 2),
        "injected_losses": inj_lost,
        "repaired": hop.fec.repaired,
        "repair_rate_pct": percent(hop.fec.repaired, inj_lost),
        "abandoned": hop.stats.abandoned,
        "recovered": hop.stats.recovered,
        "nacks_sent": hop.stats.nacks_sent,
        "retransmits": hop.link.retransmits,
        "parity_frames": hop.fec.parity_sent,
        "overhead_pct": percent(hop.fec.parity_bytes, hop.fec.data_bytes),
    }


def test_fec_overhead_sweep_and_regression_gate():
    sweep = [run_hop("fec", loss) for loss in LOSS_SWEEP]
    ladder = [run_hop(policy, HEADLINE_LOSS) for policy in LADDER]
    headline = next(r for r in sweep if r["loss_rate"] == HEADLINE_LOSS)

    # the sweep must exercise real repair at every lossy point, with
    # zero reverse traffic throughout (FEC-only hops never NACK)
    for row in sweep:
        assert row["nacks_sent"] == 0 and row["retransmits"] == 0
        if row["loss_rate"] > 0:
            assert row["repaired"] > 0
    # ladder sanity: FEC spares the reverse path NACK-only leans on
    by_policy = {r["recovery"]: r for r in ladder}
    assert by_policy["nack"]["nacks_sent"] > 0
    assert by_policy["fec"]["nacks_sent"] == 0
    assert (by_policy["fec+nack"]["nacks_sent"]
            <= by_policy["nack"]["nacks_sent"])
    assert by_policy["none"]["overhead_pct"] == 0.0

    result = {
        "params": {
            "encoding": str(PARAMS.encoding.name),
            "sample_rate": PARAMS.sample_rate,
            "channels": PARAMS.channels,
            "compress": "always",
            **FEC_GEOMETRY,
            "headline_loss": HEADLINE_LOSS,
        },
        "sweep": sweep,
        "ladder": ladder,
        "headline": headline,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(ascii_table(
        ["loss", "lost", "repaired", "repair %", "abandoned",
         "overhead %", "events/played"],
        [[r["loss_rate"], r["injected_losses"], r["repaired"],
          r["repair_rate_pct"], r["abandoned"], r["overhead_pct"],
          r["events_per_played"]]
         for r in sweep],
    ))
    print()
    print(ascii_table(
        ["recovery", "repaired", "recovered", "abandoned", "nacks",
         "retx", "overhead %", "events/played"],
        [[r["recovery"], r["repaired"], r["recovered"], r["abandoned"],
          r["nacks_sent"], r["retransmits"], r["overhead_pct"],
          r["events_per_played"]]
         for r in ladder],
    ))

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base = baseline["headline"]["events_per_played"]
        limit = base * MAX_EVENTS_REGRESSION
        measured = headline["events_per_played"]
        print(f"events/played: {measured:.2f} "
              f"(baseline {base:.2f}, limit {limit:.2f})")
        assert measured <= limit, (
            f"FEC event cost regressed >25% vs baseline: "
            f"{measured:.2f} events per played block > {limit:.2f}"
        )
