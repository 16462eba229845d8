"""ADP-style entity advertisement (after IEEE 1722.1 §6).

The paper's catalog/census is static-push: someone registers every node
by hand and a dead node stays on the books until an operator notices.
This module is the discovery half of the dynamic control plane: every
fleet node — speaker, rebroadcaster, standby, relay — runs an
:class:`EntityAdvertiser` that multicasts ``ENTITY_AVAILABLE`` on the
discovery group with

* a **valid_time lease**: a registry that hears nothing for longer than
  the advertised lease drops the entity on its own.  Zombies age out at
  lease expiry, and the expiry is the fleet's one liveness signal: a
  bound supervisor restarts the node (:mod:`repro.mgmt.supervisor`);
* a wrapping serial-16 **available_index** (compared with the same rule
  as the producer epoch, :func:`repro.core.protocol.index_newer`) bumped
  on every advertisement and on state changes, so a stale or replayed
  advertisement can never resurrect an older view of the entity;
* ``ENTITY_DEPARTING`` on clean shutdown, so planned leaves are
  distinguished from crashes.

The advertiser is *honest*: it probes its subject before every
advertisement and runs on the subject's own machine, charging CPU per
advert.  A crashed process fails the probe, a frozen one never gets the
cycles, and a halted CPU parks the advertiser entirely — in every case
the lease lapses and the fleet forgets the node, exactly as it should.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.protocol import (
    ADP_AVAILABLE,
    ADP_DEPARTING,
    ADP_DISCOVER,
    AVAILABLE_INDEX_MOD,
    ENTITY_SPEAKER,
    AdpPacket,
    ProtocolError,
    parse_packet,
)
from repro.sim.core import SimError
from repro.sim.process import Process, Sleep, Timeout

DISCOVERY_GROUP = "239.192.255.3"
#: where controllers multicast ENTITY_DISCOVER solicitations.  A group
#: of its own, *not* DISCOVERY_GROUP: advertisers listen only here, so
#: the fleet's own advertisement traffic never wakes every advertiser
#: on every advert (that would be O(fleet^2) wakeups per interval)
DISCOVERY_SOLICIT_GROUP = "239.192.255.4"
DISCOVERY_PORT = 4997

#: default lease, seconds; refreshed every DEFAULT_INTERVAL
DEFAULT_VALID_TIME = 2.0
#: default advertisement cadence: a quarter of the lease, so three
#: refreshes can be lost before a live entity ages out anywhere
DEFAULT_INTERVAL = 0.5


# -- lease arithmetic ----------------------------------------------------------


def lease_deadline(last_seen: float, valid_time: float) -> float:
    """The instant a lease refreshed at ``last_seen`` lapses."""
    return last_seen + valid_time

def lease_expired(now: float, last_seen: float, valid_time: float) -> bool:
    """True once the lease has lapsed.  The boundary instant itself is
    still live (a refresh that lands exactly at the deadline counts), so
    ``expired`` is exactly ``now > deadline`` — never ``>=`` — and the
    worst-case detection time of a scanner polling every
    ``check_interval`` is ``valid_time + check_interval``."""
    return now > lease_deadline(last_seen, valid_time)


@dataclass
class AdvertiserStats:
    advertises: int = 0       # ENTITY_AVAILABLEs actually transmitted
    departs: int = 0          # clean ENTITY_DEPARTINGs sent
    suppressed: int = 0       # ticks where the probe failed (no advert)
    state_bumps: int = 0      # extra index bumps from state transitions
    solicited: int = 0        # early wakeups from ENTITY_DISCOVER


class EntityAdvertiser:
    """One fleet node's presence beacon.

    Parameters
    ----------
    machine:
        the *subject's* machine — advertising charges its CPU, so a
        halted or saturated node stops refreshing its lease honestly.
    probe:
        liveness check run before each advertisement (process alive and
        not frozen).  A failing probe suppresses the advert.
    channel_id_fn / epoch_fn:
        live state included in each advert: the channel currently
        served (0 = untuned) and the producer epoch for talkers.  An
        epoch change between ticks (failover, driven restart) bumps the
        available_index an extra step so registries see a state change,
        not just a refresh.
    stack:
        the network stack to advertise on; defaults to the machine's
        management stack when attached, else its primary stack.
    """

    #: CPU cycles one advertisement costs on the subject's machine
    ADVERTISE_CYCLES = 2000

    def __init__(
        self,
        machine,
        entity_id: int,
        entity_kind: int = ENTITY_SPEAKER,
        name: str = "",
        probe: Optional[Callable[[], bool]] = None,
        valid_time: float = DEFAULT_VALID_TIME,
        interval: Optional[float] = None,
        channel_id_fn: Optional[Callable[[], int]] = None,
        epoch_fn: Optional[Callable[[], int]] = None,
        mgmt_port: int = 0,
        group: str = DISCOVERY_GROUP,
        port: int = DISCOVERY_PORT,
        stack=None,
    ):
        if valid_time <= 0:
            raise ValueError("valid_time must be positive")
        self.machine = machine
        self.entity_id = entity_id
        self.entity_kind = entity_kind
        self.name = name or f"entity-{entity_id}"
        self.probe = probe if probe is not None else (lambda: True)
        self.valid_time = valid_time
        self.interval = interval if interval is not None else valid_time / 4.0
        if self.interval <= 0 or self.interval > valid_time:
            raise ValueError("interval must be in (0, valid_time]")
        self.channel_id_fn = channel_id_fn or (lambda: 0)
        self.epoch_fn = epoch_fn or (lambda: 0)
        self.mgmt_port = mgmt_port
        self.group = group
        self.port = port
        self.stack = stack if stack is not None else machine.control_stack
        self.stats = AdvertiserStats()
        self.available_index = 0
        self._seq = 0
        self._last_epoch: Optional[int] = None
        self._was_alive = False
        self._proc: Optional[Process] = None
        self._sock = None

    def start(self) -> Process:
        self._proc = self.machine.spawn(
            self._run(), name=f"{self.machine.name}/adp"
        )
        return self._proc

    def stop(self) -> None:
        """Silent stop (the advertiser itself dying); the lease lapses."""
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def depart(self) -> None:
        """Clean shutdown: one best-effort ENTITY_DEPARTING, then stop.

        Sent synchronously (a node on its way down does not reschedule),
        so registries can drop the entity immediately instead of waiting
        out the lease.
        """
        sock = self._sock
        if sock is None and self.stack is not None:
            sock = self.stack.socket()
        if sock is not None:
            self.available_index = (
                self.available_index + 1
            ) % AVAILABLE_INDEX_MOD
            sock.sendto(
                self._packet(ADP_DEPARTING).encode(), (self.group, self.port)
            )
            self.stats.departs += 1
        self.stop()

    def _packet(self, message_type: int) -> AdpPacket:
        self._seq += 1
        return AdpPacket(
            entity_id=self.entity_id,
            message_type=message_type,
            entity_kind=self.entity_kind,
            valid_time=self.valid_time,
            available_index=self.available_index,
            channel_id=self.channel_id_fn(),
            mgmt_port=self.mgmt_port,
            name=self.name,
            seq=self._seq,
            epoch=self.epoch_fn() or 0,
        )

    def _transmit(self, sock) -> None:
        sock.sendto(
            self._packet(ADP_AVAILABLE).encode(), (self.group, self.port)
        )
        self.stats.advertises += 1

    def _open_solicit_listener(self):
        """Bind the discovery port and join the solicitation group.

        Multicast delivery is destination-port keyed, so hearing a
        controller's ENTITY_DISCOVER requires owning the discovery port
        on this machine.  If another process already holds it (a second
        advertiser on the same box, or a co-located controller), this
        advertiser degrades gracefully to periodic-only: leases still
        refresh on cadence, the fleet just answers cold censuses a tick
        slower from this node.
        """
        try:
            lsock = self.stack.socket(self.port)
        except SimError:
            return None
        lsock.join_multicast(DISCOVERY_SOLICIT_GROUP)
        return lsock

    @staticmethod
    def _is_discover(msg) -> bool:
        try:
            pkt = parse_packet(msg.payload)
        except ProtocolError:
            return False
        return (
            isinstance(pkt, AdpPacket)
            and pkt.message_type == ADP_DISCOVER
        )

    def _run(self):
        sock = self.stack.socket()
        self._sock = sock
        lsock = self._open_solicit_listener()
        while True:
            alive = self.probe()
            if alive:
                epoch = self.epoch_fn() or 0
                # boot, return-from-the-dead, and failover epoch bumps
                # all advance the serial an extra step: registries must
                # see a *state change*, not a mere lease refresh
                if not self._was_alive or (
                    self._last_epoch is not None and epoch != self._last_epoch
                ):
                    self.available_index = (
                        self.available_index + 1
                    ) % AVAILABLE_INDEX_MOD
                    self.stats.state_bumps += 1
                self._last_epoch = epoch
                self._was_alive = True
                yield self.machine.cpu.run(
                    self.ADVERTISE_CYCLES, domain="user"
                )
                if not self.probe():
                    # the subject died while we were charging the CPU:
                    # advertising it now would be a lie
                    self.stats.suppressed += 1
                    self._was_alive = False
                else:
                    self.available_index = (
                        self.available_index + 1
                    ) % AVAILABLE_INDEX_MOD
                    self._transmit(sock)
            else:
                self.stats.suppressed += 1
                self._was_alive = False
            if lsock is None:
                yield Sleep(self.interval)
                continue
            # sleep out the tick, but wake early for ENTITY_DISCOVER: a
            # cold-booting controller should not have to wait out every
            # advertiser's interval to complete its census
            deadline = self.machine.sim.now + self.interval
            while True:
                remaining = deadline - self.machine.sim.now
                if remaining <= 0:
                    break
                try:
                    msg = yield Timeout(lsock.recv(), remaining)
                except TimeoutError:
                    break
                if self._is_discover(msg):
                    self.stats.solicited += 1
                    break
