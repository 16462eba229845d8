"""Process-wide but injectable telemetry: gauges, histograms, a tracer.

The paper's evaluation (§3) argues from quantities you can only get by
instrumenting the running system — per-hop latency, jitter, buffer levels,
CPU figures.  Counts (packets sent, played, dropped, ...) live in exactly
one place, the ``stats`` dataclass of the component that does the work;
this module holds what a component cannot keep for itself:

* a :class:`Telemetry` registry holding named :class:`Gauge` and
  fixed-bucket :class:`Histogram` instruments, plus a
  :class:`~repro.metrics.trace.Tracer` bound to the same virtual clock;
* a **disabled mode** (:data:`NULL`) whose instruments are shared no-op
  singletons, so instrumented hot paths cost one attribute call when
  telemetry is off and benchmarks stay honest;
* :class:`PipelineReport`, the derived end-to-end view (latency
  percentiles, jitter, loss conservation, compression) that
  :class:`~repro.core.system.EthernetSpeakerSystem` builds from component
  stats and the benchmarks consume.

Components take a ``telemetry=None`` constructor argument and fall back to
the process-wide default (:func:`get_telemetry`), which starts as
:data:`NULL`.  Tests and systems inject their own registry instead of
mutating the global one; :func:`set_default` exists for whole-process runs
(CLI tools, notebooks).

Instrument names are dotted paths with an optional ``[label]`` suffix
(``"speaker.rx_queue[es0]"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.report import ascii_table, ratio
from repro.metrics.trace import NULL_TRACER, Tracer


def log_buckets(lo: float, hi: float, per_decade: int = 4) -> Tuple[float, ...]:
    """Geometric histogram bounds from ``lo`` to at least ``hi``.

    Deterministic and cheap; the default latency buckets span 1 µs to
    10 s with four buckets per decade.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    bounds = []
    step = 10.0 ** (1.0 / per_decade)
    edge = lo
    while edge < hi * (1.0 + 1e-12):
        bounds.append(edge)
        edge *= step
    bounds.append(edge)
    return tuple(bounds)


#: default bounds for time-valued histograms (seconds): 1 µs .. 10 s
DEFAULT_TIME_BUCKETS = log_buckets(1e-6, 10.0, per_decade=4)
#: default bounds for size/depth-valued histograms
DEFAULT_DEPTH_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)


class Gauge:
    """A point-in-time value; remembers its min and max."""

    __slots__ = ("name", "value", "min", "max", "samples")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples = 0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``bounds`` are ascending bucket upper edges; one overflow bucket
    catches everything above the last edge.  Exact min/max/sum are kept
    alongside the buckets so reports can bracket the interpolation.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending and non-empty")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        # linear scan: bounds lists are short and mostly hit early; a
        # bisect would pay more in call overhead at these sizes
        for i, edge in enumerate(self.bounds):
            if value <= edge:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0..100), interpolated inside
        the containing bucket and clamped to the exact observed range."""
        if self.count == 0:
            return 0.0
        target = (p / 100.0) * self.count
        seen = 0
        lower = 0.0
        for i, n in enumerate(self.buckets):
            upper = self.bounds[i] if i < len(self.bounds) else self.vmax
            if n and seen + n >= target:
                frac = (target - seen) / n
                est = lower + (upper - lower) * max(0.0, min(1.0, frac))
                return max(self.vmin, min(self.vmax, est))
            seen += n
            lower = upper
        return self.vmax

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


# -- the disabled mode ----------------------------------------------------------


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", (1.0,))


class Telemetry:
    """The registry.  One per system under test (injectable), or one per
    process via :func:`set_default`.

    Parameters
    ----------
    clock:
        zero-argument callable returning virtual seconds; usually
        ``lambda: sim.now`` (or pass ``sim=``).
    enabled:
        a disabled registry hands out shared no-op instruments and a
        disabled tracer; every recording call degrades to a constant-time
        no-op so hot paths can be instrumented unconditionally.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 sim=None, enabled: bool = True):
        if sim is not None and clock is None:
            clock = lambda: sim.now  # noqa: E731
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.tracer = (
            Tracer(clock=self.clock) if enabled else NULL_TRACER
        )

    # -- instrument access (get-or-create) ---------------------------------------

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, bounds)
        return h

    # -- one-shot conveniences ----------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        if self.enabled:
            self.histogram(name, bounds).observe(value)

    # -- aggregation --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "gauges": {
                n: {"value": g.value, "min": g.min, "max": g.max}
                for n, g in sorted(self.gauges.items()) if g.samples
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }

    def report(self) -> str:
        """Everything, as ascii tables (gauges, histograms, span
        aggregates)."""
        parts = []
        live_gauges = [
            (n, g) for n, g in sorted(self.gauges.items()) if g.samples
        ]
        if live_gauges:
            parts.append("gauges:\n" + ascii_table(
                ["gauge", "value", "min", "max"],
                [[n, g.value, g.min, g.max] for n, g in live_gauges],
            ))
        if self.histograms:
            rows = []
            for n, h in sorted(self.histograms.items()):
                s = h.snapshot()
                rows.append([n, s["count"], s["mean"], s["p50"], s["p99"],
                             s["max"]])
            parts.append("histograms:\n" + ascii_table(
                ["histogram", "count", "mean", "p50", "p99", "max"], rows,
            ))
        if self.tracer.events:
            parts.append("spans:\n" + self.tracer.summary())
        return "\n\n".join(parts) if parts else "(no telemetry recorded)"


#: the shared disabled registry; the default everywhere
NULL = Telemetry(enabled=False)

_default: Telemetry = NULL


def get_telemetry() -> Telemetry:
    """The process-wide default registry (``NULL`` unless overridden)."""
    return _default


def set_default(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` as the process default; ``None`` resets to
    :data:`NULL`.  Returns the previous default so callers can restore."""
    global _default
    previous = _default
    _default = telemetry if telemetry is not None else NULL
    return previous


# -- the derived end-to-end view ---------------------------------------------------


@dataclass
class ChannelReport:
    """Per-channel pipeline accounting (one rebroadcaster fan-out)."""

    name: str
    channel_id: int
    speakers: int
    data_sent: int = 0
    control_sent: int = 0
    #: *data* sends the producer's socket refused (each loses a delivery
    #: to every listener); failed control sends are not channel data
    send_failures: int = 0
    data_received: int = 0
    played: int = 0
    late_dropped: int = 0
    waiting_dropped: int = 0
    #: receive-side playout filtering (all included in data_received)
    dup_dropped: int = 0
    reorder_dropped: int = 0
    decode_failed: int = 0
    #: data from the wrong producer incarnation (also in data_received):
    #: stragglers from a dead producer after a failover, or early blocks
    #: from a new one whose control has not been seen yet
    epoch_dropped: int = 0
    #: *data* copies lost at speaker sockets (overflow while a node was
    #: hung or slow, plus whatever was queued when it died) — classified
    #: by packet type so control traffic never pads the data ledger
    socket_drops: int = 0
    #: data packets still unconsumed in speaker receive queues (crashed
    #: nodes keep their socket bound, so downtime arrivals sit here)
    in_flight: int = 0
    suspended_blocks: int = 0
    compression_ratio: float = 1.0

    @property
    def expected_deliveries(self) -> int:
        """Data packets times listeners (multicast fan-out)."""
        return self.data_sent * self.speakers

    @property
    def conservation_residual(self) -> int:
        """``sent - (received + dropped + in-flight)`` per §"every packet
        is somewhere": zero on a lossless LAN, and exactly the wire loss
        otherwise."""
        accounted = (
            self.data_received
            + self.socket_drops
            + self.in_flight
            + self.send_failures * self.speakers
        )
        return self.expected_deliveries - accounted


@dataclass
class PipelineReport:
    """End-to-end numbers for one run: what a perf PR must not regress."""

    duration: float
    latency: dict = field(default_factory=dict)     # e2e producer->DAC write
    arrival: dict = field(default_factory=dict)     # producer->speaker rx
    jitter: dict = field(default_factory=dict)      # |inter-arrival - nominal|
    underruns: int = 0
    silence_seconds: float = 0.0
    channels: List[ChannelReport] = field(default_factory=list)
    wire_drops: int = 0       # whole frames dropped at the sender (backlog)
    wire_losses: int = 0      # receiver copies lost to random wire loss
    #: itemised injected faults (repro.net.faults.FaultInjector), summed
    #: over every injector attached to the system's links
    injected_losses: int = 0      # copies the injector killed
    injected_duplicates: int = 0  # extra copies the injector minted
    injected_reordered: int = 0   # copies held back past later traffic
    injected_corrupted: int = 0   # copies with a flipped payload byte
    injected_pending: int = 0     # copies still parked for reordering
    #: shared decode cache (repro.codec.cache), summed over the system's
    #: caches — hits are blocks whose host-side decode was skipped
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    decode_cache_evictions: int = 0
    #: receivers-per-delivery-event histogram snapshot (net.fanout_batch);
    #: empty when telemetry is disabled or delivery is unbatched
    fanout_batch: dict = field(default_factory=dict)
    #: encode-side cache (repro.codec.cache.EncodeCache), origin mirror of
    #: the decode counts above.  Host-side accounting only: hits skip
    #: numpy work, never virtual CPU time, so these stay out-of-band of
    #: the conservation bound below
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0
    encode_cache_evictions: int = 0
    #: frames-per-real-encoder-invocation histogram (origin.encode_batch);
    #: empty when telemetry is disabled or no real encoder ran
    encode_batch: dict = field(default_factory=dict)
    #: self-healing activity (warm-standby failover + supervision layer)
    failovers: int = 0            # warm-standby takeovers
    standdowns: int = 0           # standbys yielding to a newer epoch
    takeover_latency: dict = field(default_factory=dict)  # silence -> decision
    epoch_resyncs: int = 0        # speaker re-anchors forced by epoch bumps
    rejoins: int = 0              # playback resumptions after an outage
    rejoin_gap: dict = field(default_factory=dict)  # histogram snapshot
    max_rejoin_gap: float = 0.0   # worst audible hole (from speaker stats)
    node_restarts: int = 0        # restarts the supervisors drove
    #: vectorized speaker cohorts (repro.core.cohort.SpeakerCohort)
    cohort_members: int = 0       # receivers represented by cohort rows
    cohort_spills: int = 0        # members materialised as full speakers
    cohort_events_saved: int = 0  # delivery events one exemplar stood in for
    #: WAN relay tree (repro.net.wan): link counts summed over every
    #: hop, NACK reliability activity, and relay fallback activity
    wan_sent: int = 0             # frames offered to WAN links (incl. retx)
    wan_delivered: int = 0        # frames the links delivered
    wan_lost: int = 0             # frames the links' loss draw killed
    wan_retransmits: int = 0      # NACK-driven re-sends
    wan_in_flight: int = 0        # scheduled or parked, not yet downstream
    wan_nacks: int = 0            # NACK messages over reverse paths
    wan_recovered: int = 0        # gap positions a retransmit/repair filled
    wan_abandoned: int = 0        # gap positions skipped after timeout
    wan_corrupt_dropped: int = 0  # hop arrivals the parser rejected
    #: application-layer FEC (repro.net.fec), summed over every hop
    #: running a ``"fec"``/``"fec+nack"`` recovery ladder.  Parity frames
    #: are hop-local and never channel data, so they stay out of the
    #: per-channel residual; the *repairs* are deliveries the origin
    #: never re-sent, folded into ``wan_extra_deliveries`` below
    wan_fec_sent: int = 0         # parity frames emitted by encoders
    wan_fec_repaired: int = 0     # data frames reconstructed + injected
    wan_fec_unrepairable: int = 0 # member losses beyond repair capacity
    wan_fec_wasted: int = 0       # parity frames that repaired nothing
    #: per-WAN-link fault injection (dedicated injectors on WanLinks;
    #: LAN injector sums above stay separate because their conservation
    #: budgets scale by the whole fleet, these by the hop's subtree)
    wan_injected_losses: int = 0
    wan_injected_duplicates: int = 0
    wan_injected_reordered: int = 0
    wan_injected_corrupted: int = 0
    relay_fallbacks: int = 0      # local filler sources started
    relay_standdowns: int = 0     # fallbacks yielding to a returned uplink
    relay_filler: int = 0         # filler data blocks minted
    #: Σ per-hop (lost + in-flight/parked + resequencer/parser drops +
    #: injector kills/corruptions + relay-down drops) × subtree speakers
    #: — leaf deliveries the WAN admits to having denied
    wan_lost_deliveries: int = 0
    #: Σ per-hop (retransmits + injected duplicates + FEC repairs +
    #: fallback filler) × subtree speakers — leaf deliveries the tree
    #: minted that the origin never sent
    wan_extra_deliveries: int = 0
    #: dynamic control plane (repro.mgmt.discovery / .controller): all
    #: out-of-band on the management segment, so none of these touch the
    #: audio conservation ledger
    adp_advertises: int = 0       # ENTITY_AVAILABLEs transmitted
    adp_expiries: int = 0         # leases that lapsed at a controller
    adp_departs: int = 0          # clean ENTITY_DEPARTINGs honoured
    acmp_connects: int = 0        # CONNECT_RX transactions completed
    acmp_failures: int = 0        # transactions that exhausted retries
    enumerations: int = 0         # AECP descriptor reads completed
    trace_events: int = 0

    @property
    def decode_cache_hit_rate(self) -> float:
        total = self.decode_cache_hits + self.decode_cache_misses
        return self.decode_cache_hits / total if total else 0.0

    @property
    def encode_cache_hit_rate(self) -> float:
        total = self.encode_cache_hits + self.encode_cache_misses
        return self.encode_cache_hits / total if total else 0.0

    @property
    def total_sent(self) -> int:
        return sum(c.data_sent for c in self.channels)

    @property
    def total_played(self) -> int:
        return sum(c.played for c in self.channels)

    @property
    def conservation_residual(self) -> int:
        return sum(c.conservation_residual for c in self.channels)

    @property
    def conservation_ok(self) -> bool:
        """True when every delivery is accounted for, faults included.

        A frame dropped at the sender loses up to fan-out deliveries; a
        random wire loss or an injected loss kills exactly one receiver
        copy; an injected corruption may turn a copy into garbage the
        speaker cannot attribute to the channel; a copy still parked for
        reordering is in flight.  All of those push the residual up, and
        the residual must fit inside what the network admits to having
        done.  Injected *duplicates* mint extra copies the producer never
        sent, pushing the residual negative — by at most the number of
        duplications.

        WAN hops extend both sides: every frame a hop denied (wire loss,
        injector kill or corruption, in flight, parked for resequencing
        or FEC reassembly, rejected by the parser, or dropped by a dead
        relay) loses up to its subtree's fan-out of leaf deliveries
        (``wan_lost_deliveries``), while NACK retransmits, injected
        duplicates, FEC-repaired frames, and relay fallback filler mint
        deliveries the origin never sent (``wan_extra_deliveries``).
        Parity frames themselves never enter either side: they are not
        channel data, so ``wan_fec_sent``/``wan_fec_wasted`` are pure
        overhead rows, and only ``wan_fec_repaired`` (inside
        ``wan_extra_deliveries``) touches the bound."""
        bound = (
            self.wire_drops * max(
                (c.speakers for c in self.channels), default=1
            )
            + self.wire_losses
            + self.injected_losses
            + self.injected_corrupted
            + self.injected_pending
            + self.wan_lost_deliveries
        )
        floor = -(self.injected_duplicates + self.wan_extra_deliveries)
        return floor <= self.conservation_residual <= bound

    def summary(self) -> str:
        """Ascii rendering, built on the :mod:`repro.metrics.report`
        helpers (the same tables the benchmarks print)."""
        lat_rows = []
        for label, snap in (("e2e latency (s)", self.latency),
                            ("arrival latency (s)", self.arrival),
                            ("jitter (s)", self.jitter),
                            ("fanout batch (rx)", self.fanout_batch),
                            ("origin batch (frames)", self.encode_batch),
                            ("takeover latency (s)", self.takeover_latency),
                            ("rejoin gap (s)", self.rejoin_gap)):
            if snap:
                lat_rows.append([
                    label, snap["count"], snap["mean"], snap["p50"],
                    snap["p90"], snap["p99"], snap["max"],
                ])
        parts = []
        if lat_rows:
            parts.append(ascii_table(
                ["series", "count", "mean", "p50", "p90", "p99", "max"],
                lat_rows,
            ))
        parts.append(ascii_table(
            ["channel", "sent", "rx", "played", "late", "dup", "reord",
             "undec", "epoch", "sockdrop", "inflight", "residual",
             "ratio"],
            [
                [c.name, c.data_sent, c.data_received, c.played,
                 c.late_dropped, c.dup_dropped, c.reorder_dropped,
                 c.decode_failed, c.epoch_dropped, c.socket_drops,
                 c.in_flight, c.conservation_residual,
                 c.compression_ratio]
                for c in self.channels
            ],
        ))
        rows = [
            ["duration (s)", self.duration],
            ["underruns", self.underruns],
            ["silence (s)", self.silence_seconds],
            ["wire drops", self.wire_drops],
            ["wire losses", self.wire_losses],
        ]
        if (self.injected_losses or self.injected_duplicates
                or self.injected_reordered or self.injected_corrupted
                or self.injected_pending):
            rows += [
                ["injected losses", self.injected_losses],
                ["injected duplicates", self.injected_duplicates],
                ["injected reordered", self.injected_reordered],
                ["injected corrupted", self.injected_corrupted],
                ["injected pending", self.injected_pending],
            ]
        if self.decode_cache_hits or self.decode_cache_misses:
            rows += [
                ["decode cache hits", self.decode_cache_hits],
                ["decode cache misses", self.decode_cache_misses],
                ["decode cache evictions", self.decode_cache_evictions],
                ["decode cache hit rate",
                 round(self.decode_cache_hit_rate, 4)],
            ]
        if self.encode_cache_hits or self.encode_cache_misses:
            rows += [
                ["encode cache hits", self.encode_cache_hits],
                ["encode cache misses", self.encode_cache_misses],
                ["encode cache evictions", self.encode_cache_evictions],
                ["encode cache hit rate",
                 round(self.encode_cache_hit_rate, 4)],
            ]
        if (self.failovers or self.standdowns or self.rejoins
                or self.node_restarts
                or self.epoch_resyncs):
            rows += [
                ["failovers (takeovers)", self.failovers],
                ["standby stand-downs", self.standdowns],
                ["epoch resyncs", self.epoch_resyncs],
                ["rejoins", self.rejoins],
                ["max rejoin gap (s)", round(self.max_rejoin_gap, 4)],
                ["node restarts", self.node_restarts],
            ]
        if self.cohort_members:
            rows += [
                ["cohort members", self.cohort_members],
                ["cohort spills", self.cohort_spills],
                ["cohort events saved", self.cohort_events_saved],
            ]
        if self.wan_sent or self.relay_fallbacks:
            rows += [
                ["wan sent", self.wan_sent],
                ["wan delivered", self.wan_delivered],
                ["wan lost", self.wan_lost],
                ["wan delivery rate",
                 round(ratio(self.wan_delivered, self.wan_sent), 4)],
                ["wan retransmits", self.wan_retransmits],
                ["wan nacks", self.wan_nacks],
                ["wan recovered", self.wan_recovered],
                ["wan abandoned", self.wan_abandoned],
                ["wan in flight", self.wan_in_flight],
            ]
            if self.wan_fec_sent or self.wan_fec_repaired:
                rows += [
                    ["wan fec parity sent", self.wan_fec_sent],
                    ["wan fec repaired", self.wan_fec_repaired],
                    ["wan fec unrepairable", self.wan_fec_unrepairable],
                    ["wan fec wasted", self.wan_fec_wasted],
                ]
            if (self.wan_injected_losses or self.wan_injected_duplicates
                    or self.wan_injected_reordered
                    or self.wan_injected_corrupted
                    or self.wan_corrupt_dropped):
                rows += [
                    ["wan injected losses", self.wan_injected_losses],
                    ["wan injected duplicates",
                     self.wan_injected_duplicates],
                    ["wan injected reordered", self.wan_injected_reordered],
                    ["wan injected corrupted", self.wan_injected_corrupted],
                    ["wan corrupt dropped", self.wan_corrupt_dropped],
                ]
            rows += [
                ["relay fallbacks", self.relay_fallbacks],
                ["relay stand-downs", self.relay_standdowns],
                ["relay filler blocks", self.relay_filler],
                ["wan lost deliveries", self.wan_lost_deliveries],
                ["wan extra deliveries", self.wan_extra_deliveries],
            ]
        if (self.adp_advertises or self.adp_expiries
                or self.acmp_connects or self.acmp_failures
                or self.enumerations):
            rows += [
                ["adp advertises", self.adp_advertises],
                ["adp expiries", self.adp_expiries],
                ["adp departs", self.adp_departs],
                ["acmp connects", self.acmp_connects],
                ["acmp failures", self.acmp_failures],
                ["enumerations", self.enumerations],
            ]
        rows += [
            ["trace events", self.trace_events],
            ["conservation ok", str(self.conservation_ok)],
        ]
        parts.append(ascii_table(["quantity", "value"], rows))
        return "\n\n".join(parts)
