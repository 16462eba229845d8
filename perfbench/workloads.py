"""The benchmark's workloads, built only through the public
``EthernetSpeakerSystem`` API.

Each workload is split in two:

* ``inputs(seed)`` generates everything the run consumes — source PCM,
  fault seeds, the join/crash schedule — before any clock starts;
* ``build(inputs)`` assembles a fresh system from those inputs (this is
  what ``setup_s`` times) and returns a :class:`Job` the harness runs.

The program never sees the workload seed, only what the generators
derived from it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.audio import AudioEncoding, AudioParams, music
from repro.audio.params import CD_QUALITY
from repro.core import EthernetSpeakerSystem
from repro.sim.process import Process, Sleep, WaitProcess

from measure import channel_digests

RADIO = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)


@dataclass
class Listener:
    """One listener, or a group of cohort members sharing one state.

    ``members`` rows of a :class:`~repro.core.SpeakerCohort` that never
    spilled share the exemplar's stats and sink, so they are scored once
    and weighted by their count.
    """

    name: str
    channel_id: int
    stats: object
    sink: object
    #: sim time the harness tuned this listener (boot, or CONNECT sent);
    #: blocks the origin sent before it are not expected
    join_at: float = 0.0
    members: int = 1
    #: per-object speakers are the ones skew is measured across
    per_object: bool = True


@dataclass
class Job:
    system: EthernetSpeakerSystem
    #: simulated seconds the run covers (stream plus drain)
    horizon: float
    #: resolved after the run: cohort members may have spilled
    listeners: Callable[[], List[Listener]]
    #: channel id -> [(send time, wire bytes)] teed off each origin
    sent: Dict[int, list]
    #: whether the pipeline report's conservation model holds here
    ledger_gated: bool
    #: workload-specific output checks; returns the problems found
    check: Callable[[], List[str]] = list
    #: station only: channel id -> catalogue piece it carries
    pieces: Dict[int, int] = field(default_factory=dict)


def _tap_origin(system, rb, sent: Dict[int, list]) -> None:
    """Tee every wire packet the origin sends, with its send time."""
    log = sent.setdefault(rb.channel.channel_id, [])
    sim = system.sim
    rb.add_wan_tap(lambda wire: log.append((sim.now, wire)))


def _subseed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# -- station: one clean LAN, 16 batched CD channels, 4,096 cohort listeners ---

STATION_CHANNELS = 16
STATION_SOURCES = 8          # each simulcast on two channels
STATION_CATALOGUE = 16       # pieces the seed draws the sources from
STATION_MEMBERS = 256
STATION_BLOCK = 0.25
STATION_SECONDS = 10.0
STATION_DRAIN = 2.0
#: piece -> SHA-256 of the DAC bytes a channel carrying it emits
STATION_DIGESTS = Path(__file__).resolve().parent / "station_digests.json"


def station_piece(k: int):
    """Catalogue piece ``k``: the station's channel digests are recorded
    per piece, so they hold for every workload seed."""
    return music(STATION_SECONDS, CD_QUALITY.sample_rate, seed=1000 + k)


def station_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    pieces = rng.sample(range(STATION_CATALOGUE), STATION_SOURCES)
    # channel c carries source assignment[c]; every source lands on two
    assignment = [i // 2 for i in range(STATION_CHANNELS)]
    rng.shuffle(assignment)
    return {
        "system_seed": _subseed(rng),
        "pieces": pieces,
        "assignment": assignment,
        "pcm": {k: station_piece(k) for k in pieces},
    }


def station_build(inp: dict) -> Job:
    system = EthernetSpeakerSystem(seed=inp["system_seed"], telemetry=False)
    sent: Dict[int, list] = {}
    cohorts = []
    pieces_by_channel = {}
    for c, src in enumerate(inp["assignment"]):
        piece = inp["pieces"][src]
        producer = system.add_producer(
            name=f"origin{c}", slave_path=f"/dev/vads{c}",
            master_path=f"/dev/vadm{c}", block_seconds=STATION_BLOCK,
        )
        channel = system.add_channel(f"ch{c}", params=CD_QUALITY,
                                     compress="always")
        rb = system.add_rebroadcaster(producer, channel,
                                      master_path=f"/dev/vadm{c}")
        _tap_origin(system, rb, sent)
        cohorts.append(system.add_speaker_cohort(channel, STATION_MEMBERS))
        pieces_by_channel[channel.channel_id] = piece
        system.play_pcm(producer, inp["pcm"][piece], CD_QUALITY,
                        slave_path=f"/dev/vads{c}")

    def listeners() -> List[Listener]:
        return [
            listener
            for cohort in cohorts
            for listener in cohort_listeners(cohort)
        ]

    job = Job(
        system=system,
        horizon=STATION_SECONDS + STATION_DRAIN,
        listeners=listeners, sent=sent,
        # the LAN drops most control packets at the sender (16 origins
        # send their blocks at the same instants) and the report books
        # each control send failure as a lost data delivery to every
        # listener, so its ledger reads negative though every block plays
        ledger_gated=False,
        check=lambda: station_digest_problems(job, pieces_by_channel),
        pieces=pieces_by_channel,
    )
    return job


def station_digest_problems(job, pieces_by_channel) -> List[str]:
    """Every channel must emit exactly the bytes recorded for its
    catalogue piece: a guard on bit identity through codec and cohort."""
    recorded = json.loads(STATION_DIGESTS.read_text())
    digests = channel_digests(job)
    return [
        f"channel {channel_id} (piece {piece}) DAC digest "
        f"{digests.get(channel_id)} != recorded {recorded.get(str(piece))}"
        for channel_id, piece in pieces_by_channel.items()
        if digests.get(channel_id) != recorded.get(str(piece))
    ]


def cohort_listeners(cohort) -> List[Listener]:
    """Group a cohort's members by the stats object they share."""
    groups: Dict[int, list] = {}
    for tok in cohort.tokens:
        groups.setdefault(id(tok.stats), []).append(tok)
    out = []
    for toks in groups.values():
        tok = toks[0]
        out.append(Listener(
            name=f"{cohort.name}[{tok.idx}]" if len(toks) == 1
            else f"{cohort.name}[x{len(toks)}]",
            channel_id=cohort.channel.channel_id,
            stats=tok.stats, sink=tok.sink,
            members=len(toks), per_object=False,
        ))
    return out


# -- relay_tree: origin -> 2 regional relays over faulty WAN hops -> 4 leaf LANs

RELAY_SECONDS = 30.0
RELAY_DRAIN = 3.0
RELAY_REGIONALS = 2
RELAY_LEAVES = 2
RELAY_SPEAKERS = 4
#: the seeded fault chain every WAN uplink carries
RELAY_WAN_FAULTS = dict(
    loss_rate=0.02, burst_length=2.0, duplicate_rate=0.01,
    reorder_rate=0.02, reorder_window=3, corrupt_rate=0.002,
)


def relay_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "system_seed": _subseed(rng),
        "pcm": music(RELAY_SECONDS, RADIO.sample_rate, seed=_subseed(rng)),
        "wan_seeds": [_subseed(rng) for _ in range(RELAY_REGIONALS)],
    }


def relay_build(inp: dict) -> Job:
    system = EthernetSpeakerSystem(seed=inp["system_seed"], telemetry=False)
    sent: Dict[int, list] = {}
    producer = system.add_producer()
    channel = system.add_channel("radio", params=RADIO, compress="always")
    rb = system.add_rebroadcaster(producer, channel)
    _tap_origin(system, rb, sent)
    nodes = []
    for r in range(RELAY_REGIONALS):
        relay = system.add_relay(
            rb, name=f"regional{r}", latency=0.030 + 0.010 * r,
            recovery="fec+nack", fec_k=4, fec_r=1,
            wan_faults=dict(RELAY_WAN_FAULTS, seed=inp["wan_seeds"][r]),
        )
        for leaf_i in range(RELAY_LEAVES):
            leaf = system.add_leaf_lan(relay, channel,
                                       name=f"leaf{r}.{leaf_i}")
            for s in range(RELAY_SPEAKERS):
                nodes.append(system.add_speaker(
                    channel=channel, lan=leaf, name=f"es{r}.{leaf_i}.{s}",
                ))
    system.play_pcm(producer, inp["pcm"], RADIO)

    def listeners() -> List[Listener]:
        return [node_listener(n, channel.channel_id, 0.0) for n in nodes]

    return Job(
        system=system,
        horizon=RELAY_SECONDS + RELAY_DRAIN,
        listeners=listeners, sent=sent, ledger_gated=True,
    )


def node_listener(node, channel_id: int, join_at: float) -> Listener:
    return Listener(name=node.speaker.name, channel_id=channel_id,
                    stats=node.stats, sink=node.sink, join_at=join_at)


# -- hostile_fleet: a discovery-assembled fleet on a faulty LAN, with crashes --

FLEET_SECONDS = 30.0
FLEET_DRAIN = 3.0
FLEET_SPEAKERS = 32
FLEET_CRASHES = FLEET_SPEAKERS // 4
FLEET_CONNECT_AT = 0.5
#: the seeded fault chain on the fleet's LAN
FLEET_LAN_FAULTS = dict(
    loss_rate=0.02, burst_length=2.0, duplicate_rate=0.01,
    reorder_rate=0.02, reorder_window=3, corrupt_rate=0.01,
)


def fleet_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    crashed = rng.sample(range(FLEET_SPEAKERS), FLEET_CRASHES)
    # staggered: one crash every ~2.5 s from t=5 s, each a little jittered
    crash_at = [5.0 + 2.5 * k + rng.uniform(0.0, 1.0)
                for k in range(FLEET_CRASHES)]
    return {
        "system_seed": _subseed(rng),
        "pcm": music(FLEET_SECONDS, RADIO.sample_rate, seed=_subseed(rng)),
        "fault_seed": _subseed(rng),
        "crashes": list(zip(crashed, crash_at)),
    }


def fleet_build(inp: dict) -> Job:
    system = EthernetSpeakerSystem(seed=inp["system_seed"], telemetry=False)
    sent: Dict[int, list] = {}
    producer = system.add_producer()
    channel = system.add_channel("hall", params=RADIO, compress="always")
    rb = system.add_rebroadcaster(producer, channel, control_interval=0.5)
    _tap_origin(system, rb, sent)
    supervisor = system.add_supervisor()
    nodes = []
    for i in range(FLEET_SPEAKERS):
        node = system.add_speaker(channel=None, start=False, name=f"es{i}")
        system.advertise_speaker(node)
        system.supervise_speaker(supervisor, node)
        nodes.append(node)
    controller = system.add_controller(supervisor=supervisor,
                                       check_interval=0.1)
    connect_at: Dict[str, float] = {}
    connected: List[bool] = []

    def assemble():
        yield Sleep(FLEET_CONNECT_AT)
        for node in nodes:
            connect_at[node.speaker.name] = system.sim.now
            ok = yield WaitProcess(
                system.connect_speaker(controller, node, channel)
            )
            connected.append(ok)

    Process.spawn(system.sim, assemble(), name="bench-assembler")
    system.inject_faults(seed=inp["fault_seed"], **FLEET_LAN_FAULTS)
    for idx, at in inp["crashes"]:
        system.schedule_fault(nodes[idx], after=at, kind="crash")
    system.play_pcm(producer, inp["pcm"], RADIO)

    def listeners() -> List[Listener]:
        return [
            node_listener(n, channel.channel_id,
                          connect_at.get(n.speaker.name, float("inf")))
            for n in nodes
        ]

    return Job(
        system=system,
        horizon=FLEET_SECONDS + FLEET_DRAIN,
        listeners=listeners, sent=sent,
        # pipeline_report counts parked listeners as expected receivers
        # from t=0, so its ledger cannot close under late CONNECTs
        ledger_gated=False,
        check=lambda: [] if connected == [True] * FLEET_SPEAKERS else [
            f"ACMP CONNECTs: {connected.count(True)} of {FLEET_SPEAKERS} "
            f"succeeded"
        ],
    )


WORKLOADS = {
    "station": (station_inputs, station_build),
    "relay_tree": (relay_inputs, relay_build),
    "hostile_fleet": (fleet_inputs, fleet_build),
}
