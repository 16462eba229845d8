"""Warm-standby rebroadcaster failover.

The paper's producer is a single point of failure: every speaker is
stateless and replaceable, but if the Rebroadcaster process dies the LAN
goes silent forever.  This module adds the missing robustness layer in
the style of production installed-audio systems (see PAPERS.md, the
self-healing audio system): a **warm standby** producer that

* runs the full producer pipeline — it reads its own mirror of the
  source feed and paces it through a rate limiter — but with
  transmission *suspended* (the MSNIP suspend machinery from §4.3);
* monitors the primary's **control-packet cadence** on the channel's
  own multicast group (controls are the liveness signal the protocol
  already broadcasts at a fixed interval);
* takes over when no control has been heard for ``takeover_timeout``
  seconds, resuming its rebroadcaster with an **incremented epoch** so
  every speaker re-anchors onto the new incarnation instead of
  misreading the handover as clock drift;
* stands down again if it later hears a control stamped with a newer
  epoch than its own (an operator brought up a replacement primary),
  returning to suspended monitoring.

Because the standby's stream clock paced the same source in the same
virtual time, its ``stream_pos`` is continuous with the primary's to
within one block — the audible gap at the speakers is bounded by the
takeover timeout plus one playout-buffer depth (asserted by the chaos
soak tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.protocol import (
    EPOCH_MOD,
    ControlPacket,
    ProtocolError,
    epoch_newer,
    parse_packet,
)
from repro.core.rebroadcaster import Rebroadcaster
from repro.metrics.telemetry import get_telemetry
from repro.sim.process import Process, ProcessKilled, Timeout


@dataclass
class FailoverStats:
    takeovers: int = 0
    standdowns: int = 0
    controls_seen: int = 0
    #: per takeover: seconds from the last control heard to the decision
    takeover_latencies: List[float] = field(default_factory=list)


class CadenceMonitor:
    """Liveness inferred from a packet cadence: silence means death.

    The protocol already broadcasts control packets at a fixed interval,
    so every downstream component can detect an upstream failure the
    same way — remember when traffic was last heard and call it dead
    once the silence exceeds ``timeout``.  Used by :class:`WarmStandby`
    (control cadence on the channel's multicast group) and by the WAN
    relay tree (uplink cadence at each :class:`~repro.net.wan.RelayNode`).

    A monitor only **arms** once traffic has been heard at all: a source
    that never transmitted is idle, not dead.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self.last_heard = float("-inf")
        self.armed = False

    def heard(self, now: float) -> None:
        self.last_heard = now
        self.armed = True

    def silence(self, now: float) -> float:
        """Seconds since traffic was last heard."""
        return now - self.last_heard

    def silent(self, now: float) -> bool:
        """True once an armed monitor has outwaited ``timeout``."""
        return self.armed and self.silence(now) >= self.timeout

    def reset(self) -> None:
        """Cold start: forget everything, disarm."""
        self.last_heard = float("-inf")
        self.armed = False


class WarmStandby:
    """A suspended producer plus the watchdog that activates it.

    Parameters
    ----------
    rebroadcaster:
        the standby's own :class:`Rebroadcaster` (same channel, its own
        machine and VAD).  It is forced into the suspended state; the
        watchdog resumes it on takeover.
    takeover_timeout:
        how long the control silence must last before taking over.  Must
        comfortably exceed the primary's ``control_interval`` — see
        docs/faults.md for tuning rules.
    check_interval:
        watchdog poll granularity; the takeover decision lands within
        one check interval of the timeout expiring.
    """

    #: CPU cycles charged per observed packet (header peek + bookkeeping)
    MONITOR_CYCLES = 2000

    def __init__(
        self,
        rebroadcaster: Rebroadcaster,
        takeover_timeout: float = 1.5,
        check_interval: float = 0.25,
        name: str = "standby0",
        telemetry=None,
    ):
        if takeover_timeout <= 0:
            raise ValueError("takeover_timeout must be positive")
        self.rb = rebroadcaster
        self.machine = rebroadcaster.machine
        self.channel = rebroadcaster.channel
        self.takeover_timeout = takeover_timeout
        self.check_interval = check_interval
        self.name = name
        self.active = False
        self.stats = FailoverStats()
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self._proc: Optional[Process] = None
        self._sock = None
        #: the watchdog's memory — only arms once the primary has been
        #: heard at all (a channel that never transmitted is idle, not
        #: dead)
        self._cadence = CadenceMonitor(takeover_timeout)
        self._seen_epoch: Optional[int] = None

    def start(self) -> "WarmStandby":
        """Start the suspended producer and the watchdog process."""
        self.rb.suspended = True
        if self.rb._proc is None:
            self.rb.start()
        self._proc = self.machine.spawn(
            self._monitor(), name=f"{self.machine.name}/standby-watchdog"
        )
        return self

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
        self.rb.stop()

    def crash(self) -> None:
        """Kill both the watchdog and the standby producer process."""
        self.stop()

    def restart(self) -> "WarmStandby":
        """Bring a crashed standby back into suspended monitoring."""
        if self._proc is not None and self._proc.alive:
            self._proc.kill()
        if self.rb._proc is not None and self.rb._proc.alive:
            self.rb._proc.kill()
        self.active = False
        self.rb._proc = None
        self._cadence.reset()
        return self.start()

    # -- the watchdog ---------------------------------------------------------

    def _monitor(self):
        machine = self.machine
        sock = machine.net.socket(self.channel.port, rx_capacity=32)
        sock.join_multicast(self.channel.group_ip)
        self._sock = sock
        try:
            while True:
                try:
                    msg = yield Timeout(sock.recv(), self.check_interval)
                except TimeoutError:
                    self._maybe_take_over()
                    continue
                yield machine.cpu.run(self.MONITOR_CYCLES, domain="user")
                try:
                    packet = parse_packet(msg.payload)
                except ProtocolError:
                    continue
                if (
                    not isinstance(packet, ControlPacket)
                    or packet.channel_id != self.channel.channel_id
                ):
                    continue
                self._observe_control(packet)
        except ProcessKilled:
            raise
        finally:
            sock.close()
            if self._sock is sock:
                self._sock = None

    def _observe_control(self, packet: ControlPacket) -> None:
        # the standby never hears its own transmissions (the segment
        # excludes the sender), so any control seen here is another
        # producer talking on our channel
        self.stats.controls_seen += 1
        self._cadence.heard(self.machine.sim.now)
        if self._seen_epoch is None or epoch_newer(
            packet.epoch, self._seen_epoch
        ):
            self._seen_epoch = packet.epoch
        if self.active and epoch_newer(packet.epoch, self.rb.epoch):
            self._stand_down(packet.epoch)

    def _maybe_take_over(self) -> None:
        if self.active:
            return
        now = self.machine.sim.now
        if not self._cadence.silent(now):
            return
        silence = self._cadence.silence(now)
        candidate = ((self._seen_epoch if self._seen_epoch is not None
                      else self.rb.epoch) + 1) % EPOCH_MOD
        if not epoch_newer(candidate, self.rb.epoch):
            # we were active before and already own a higher epoch
            candidate = (self.rb.epoch + 1) % EPOCH_MOD
        self.rb.epoch = candidate
        self.rb.resume()
        self.active = True
        self.stats.takeovers += 1
        self.stats.takeover_latencies.append(silence)
        self.telemetry.observe("failover.takeover_latency", silence)
        self.telemetry.tracer.instant(
            "failover.takeover", track=self.name,
            epoch=candidate, silence=silence,
        )

    def _stand_down(self, new_epoch: int) -> None:
        self.rb.suspend()
        self.active = False
        self.stats.standdowns += 1
        self.telemetry.tracer.instant(
            "failover.standdown", track=self.name, yielded_to=new_epoch,
        )
