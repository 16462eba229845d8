"""TELEMETRY — observing the pipeline must not distort it.

Two claims, bench-marked on the same boot-to-audio scenario:

* **enabled**: a full run with telemetry on produces a usable
  :class:`~repro.metrics.telemetry.PipelineReport` (non-zero latency
  percentiles, settled conservation ledger) and a loadable Chrome trace —
  this is the smoke benchmark CI runs;
* **disabled**: the instrumented hot paths cost so little with telemetry
  off that wall-clock stays within noise of the seed (the disabled-mode
  instruments are shared no-ops), and the *virtual* outcome is identical
  either way.
"""

import json

from repro.audio import AudioEncoding, AudioParams, sine
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from tests.oracles import report_counts

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 8000, 1)
STREAM_SECONDS = 8.0
N_SPEAKERS = 3


def run_pipeline(telemetry: bool):
    system = EthernetSpeakerSystem(telemetry=telemetry)
    producer = system.add_producer()
    channel = system.add_channel("bench", params=PARAMS, compress="never")
    system.add_rebroadcaster(producer, channel, control_interval=0.5)
    for _ in range(N_SPEAKERS):
        system.add_speaker(channel=channel)
    system.play_pcm(producer, sine(440, STREAM_SECONDS, 8000), PARAMS)
    system.run(until=STREAM_SECONDS + 4.0)
    return system


def test_telemetry_on_smoke(benchmark):
    """The CI smoke run: telemetry on, report and trace both usable."""
    system = benchmark.pedantic(run_pipeline, args=(True,), rounds=1,
                                iterations=1)
    rep = system.pipeline_report()

    assert rep.latency["count"] > 0
    assert rep.latency["p50"] > 0
    assert rep.arrival["p99"] > 0
    assert rep.conservation_ok
    assert rep.total_played > 0

    trace = json.loads(system.telemetry.tracer.to_json())
    assert len(trace["traceEvents"]) == rep.trace_events + len(
        system.telemetry.tracer._tracks
    )

    print()
    print(rep.summary())
    print()
    print("span aggregates:")
    print(system.telemetry.tracer.summary())


def test_telemetry_off_same_outcome(benchmark):
    """Disabled mode: identical virtual outcome, no events retained."""
    off = benchmark.pedantic(run_pipeline, args=(False,), rounds=3,
                             iterations=1)
    on = run_pipeline(True)

    assert off.telemetry.tracer.events == []
    assert off.telemetry.gauges == {} and off.telemetry.histograms == {}
    assert [n.stats.played for n in off.speakers] == [
        n.stats.played for n in on.speakers
    ]
    assert report_counts(off.pipeline_report()) == report_counts(
        on.pipeline_report()
    )
    assert off.sim.now == on.sim.now

    rows = [
        ["played blocks", sum(n.stats.played for n in off.speakers),
         sum(n.stats.played for n in on.speakers)],
        ["underruns", sum(n.device.underruns for n in off.speakers),
         sum(n.device.underruns for n in on.speakers)],
        ["trace events", 0, len(on.telemetry.tracer.events)],
    ]
    print()
    print(ascii_table(["quantity", "telemetry off", "telemetry on"], rows))
