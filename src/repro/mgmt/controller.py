"""Fleet controller: registry, enumeration, connection management.

The ACMP/AECP half of the dynamic control plane (after IEEE 1722.1
§8/§9).  A :class:`FleetController` listens on the discovery group and
keeps the authoritative fleet map the paper's census only approximates
by polling:

* **registry** — every ``ENTITY_AVAILABLE`` advert inserts or refreshes
  an :class:`EntityRecord`; refreshes must carry a *newer* serial-16
  ``available_index`` (:func:`repro.core.protocol.index_newer`) or they
  are counted as stale and ignored, so replayed or reordered adverts can
  never resurrect an old view.  ``ENTITY_DEPARTING`` retires a record
  immediately; anything else ages out when its advertised ``valid_time``
  lease lapses.
* **AECP** — the controller reads an entity's descriptor (channels
  served, gain, name) with READ_DESCRIPTOR and sets its gain with
  SET_CONTROL.
* **ACMP connection management** — tune/retune becomes a
  CONNECT_RX/DISCONNECT_RX transaction.

Every AECP and ACMP command runs through one transaction loop: command
to the entity's management agent, response matched by sequence number,
seeded linear timeout back-off, bounded retries, failure counted —
never silent.

Lease expiry is the fleet's one liveness signal: when a supervisor is
bound via :meth:`FleetController.bind_supervisor`, an expired lease
calls ``supervisor.notify_lease_expired(name)``, which schedules the
guarded restart, again each further ``valid_time`` the entity stays
silent (so a restart that did not take is retried), and an entity
advertising again after its lease lapsed calls
``supervisor.notify_returned(name)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.protocol import (
    ACMP_CONNECT_RX_COMMAND,
    ACMP_CONNECT_RX_RESPONSE,
    ACMP_DISCONNECT_RX_COMMAND,
    ACMP_DISCONNECT_RX_RESPONSE,
    ACMP_OK,
    ADP_AVAILABLE,
    ADP_DEPARTING,
    ADP_DISCOVER,
    AECP_COMMAND,
    AECP_OK,
    AECP_READ_DESCRIPTOR,
    AECP_RESPONSE,
    AECP_SET_CONTROL,
    ENTITY_CONTROLLER,
    AcmpPacket,
    AdpPacket,
    AecpPacket,
    ProtocolError,
    index_newer,
    parse_packet,
)
from repro.mgmt.discovery import (
    DEFAULT_VALID_TIME,
    DISCOVERY_GROUP,
    DISCOVERY_PORT,
    DISCOVERY_SOLICIT_GROUP,
    lease_expired,
)
from repro.platform.archive import pack_archive, unpack_archive
from repro.sim.process import Process, Timeout

#: registry entity states
ENT_AVAILABLE = "available"
ENT_DEPARTED = "departed"
ENT_EXPIRED = "expired"

#: upper bound of the seeded multiplicative jitter on transaction
#: timeouts: each attempt waits ``txn_timeout * (attempt + 1) * (1 + U)``
#: with ``U`` uniform in ``[0, TIMEOUT_JITTER)``
TIMEOUT_JITTER = 0.5


@dataclass
class EntityRecord:
    """One fleet node as the controller currently believes it to be."""

    entity_id: int
    kind: int
    name: str
    ip: str
    mgmt_port: int
    #: channel the entity is on: its latest advert, or this
    #: controller's last completed CONNECT/DISCONNECT if that is newer
    channel_id: int
    valid_time: float
    available_index: int
    epoch: int
    last_seen: float
    state: str = ENT_AVAILABLE
    descriptor: Optional[Dict[str, str]] = None
    #: (group_ip, port, channel_id) of the stream this controller
    #: connected the entity to, if any
    connected: Optional[Tuple[str, int, int]] = None
    #: when the lease lapsed, or was last reported lapsed again
    expired_at: Optional[float] = None


@dataclass
class ControllerStats:
    adp_advertises: int = 0        # AVAILABLEs accepted (fresh)
    stale_adverts: int = 0         # AVAILABLEs rejected by serial check
    departs: int = 0               # clean DEPARTINGs honoured
    expiries: int = 0              # leases that lapsed (zombies aged out)
    enumerations: int = 0          # AECP descriptor reads completed
    enumeration_retries: int = 0
    enumeration_failures: int = 0
    acmp_connects: int = 0         # CONNECT transactions completed
    acmp_disconnects: int = 0
    acmp_retries: int = 0
    acmp_failures: int = 0         # transactions that exhausted retries
    gain_sets: int = 0             # AECP SET_CONTROL transactions completed
    gain_set_retries: int = 0
    gain_set_failures: int = 0
    restarts: int = 0              # controller cold restarts
    discovers_sent: int = 0        # ENTITY_DISCOVER solicitations sent


class FleetController:
    """The administrative-domain controller (one per deployment).

    Runs on its own machine — preferentially on a management-only
    segment so registry churn cannot contend with audio traffic.
    """

    #: CPU cycles to process one inbound PDU or send one command
    PROCESS_CYCLES = 2000

    def __init__(
        self,
        machine,
        name: str = "controller0",
        group: str = DISCOVERY_GROUP,
        port: int = DISCOVERY_PORT,
        check_interval: float = 0.25,
        txn_timeout: float = 0.25,
        txn_retries: int = 3,
        seed: int = 0,
        auto_enumerate: bool = False,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.name = name
        self.group = group
        self.port = port
        self.check_interval = check_interval
        self.txn_timeout = txn_timeout
        self.txn_retries = txn_retries
        self.seed = seed
        self.auto_enumerate = auto_enumerate
        self.stack = machine.control_stack
        self.entities: Dict[int, EntityRecord] = {}
        self.stats = ControllerStats()
        self.supervisor = None
        self.on_available: Optional[Callable[[EntityRecord, bool], None]] = None
        self.on_departed: Optional[Callable[[EntityRecord], None]] = None
        self.on_expired: Optional[Callable[[EntityRecord], None]] = None
        self.on_connected: Optional[
            Callable[[EntityRecord, int], None]
        ] = None
        self.on_disconnected: Optional[Callable[[EntityRecord], None]] = None
        self._rng = random.Random(seed)
        self._seq = 0
        self._listener: Optional[Process] = None
        self._txns: List[Process] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Process:
        self._listener = self.machine.spawn(
            self._listen(), name=f"{self.name}/adp-listen"
        )
        return self._listener

    def crash(self) -> None:
        """Kill the controller mid-flight: listener and every in-flight
        transaction die where they stand.  The registry is *not* wiped
        here — a crashed box keeps its RAM until someone reboots it."""
        if self._listener is not None:
            self._listener.kill()
            self._listener = None
        for txn in self._txns:
            txn.kill()
        self._txns.clear()

    def restart(self) -> Process:
        """Cold restart: the registry starts empty (leases are not
        persisted) and repopulates from live advertisements within one
        advertising interval."""
        self.crash()
        self.entities.clear()
        self._rng = random.Random(self.seed)
        self.stats.restarts += 1
        return self.start()

    @property
    def alive(self) -> bool:
        return self._listener is not None and self._listener.alive

    def bind_supervisor(self, supervisor) -> None:
        """Route lease expiries and returns into the supervisor, keyed by
        the entity's advertised name."""
        self.supervisor = supervisor

    # -- registry queries ----------------------------------------------------

    def available(self) -> List[EntityRecord]:
        return [
            r for r in self.entities.values() if r.state == ENT_AVAILABLE
        ]

    def find(self, name: str) -> Optional[EntityRecord]:
        for rec in self.entities.values():
            if rec.name == name:
                return rec
        return None

    def fleet_map(self) -> Dict[int, List[str]]:
        """channel_id → sorted names of live entities serving it.

        This is the map the paper's census polls the fleet to rebuild;
        here it falls straight out of the registry."""
        out: Dict[int, List[str]] = {}
        for rec in self.entities.values():
            if rec.state == ENT_AVAILABLE and rec.channel_id:
                out.setdefault(rec.channel_id, []).append(rec.name)
        for names in out.values():
            names.sort()
        return out

    def census(self, channel_id: int) -> int:
        """Listener count for a channel, no polling round-trip needed."""
        return len(self.fleet_map().get(channel_id, []))

    # -- ADP listener --------------------------------------------------------

    def _listen(self):
        sock = self.stack.socket(self.port)
        sock.join_multicast(self.group)
        try:
            # cold-boot census: solicit the fleet instead of waiting out
            # every advertiser's periodic interval.  Runs again on
            # restart() for free — restart respawns this listener.
            yield self.machine.cpu.run(self.PROCESS_CYCLES, domain="user")
            sock.sendto(
                AdpPacket(
                    entity_id=0,
                    message_type=ADP_DISCOVER,
                    entity_kind=ENTITY_CONTROLLER,
                    name=self.name,
                ).encode(),
                (DISCOVERY_SOLICIT_GROUP, self.port),
            )
            self.stats.discovers_sent += 1
            while True:
                try:
                    msg = yield Timeout(sock.recv(), self.check_interval)
                except TimeoutError:
                    self._scan_leases()
                    continue
                yield self.machine.cpu.run(
                    self.PROCESS_CYCLES, domain="user"
                )
                try:
                    pkt = parse_packet(msg.payload)
                except ProtocolError:
                    continue
                if isinstance(pkt, AdpPacket):
                    self._handle_adp(pkt, msg.src)
                self._scan_leases()
        finally:
            sock.close()

    def _handle_adp(self, pkt: AdpPacket, src: Tuple[str, int]) -> None:
        rec = self.entities.get(pkt.entity_id)
        if pkt.message_type == ADP_AVAILABLE:
            if rec is not None and rec.state == ENT_AVAILABLE:
                if not index_newer(pkt.available_index, rec.available_index):
                    self.stats.stale_adverts += 1
                    return
                rec.ip = src[0]
                rec.mgmt_port = pkt.mgmt_port
                rec.channel_id = pkt.channel_id
                rec.valid_time = pkt.valid_time
                rec.available_index = pkt.available_index
                rec.epoch = pkt.epoch
                rec.last_seen = self.sim.now
                self.stats.adp_advertises += 1
                return
            returning = rec is not None
            rec = EntityRecord(
                entity_id=pkt.entity_id,
                kind=pkt.entity_kind,
                name=pkt.name,
                ip=src[0],
                mgmt_port=pkt.mgmt_port,
                channel_id=pkt.channel_id,
                valid_time=pkt.valid_time,
                available_index=pkt.available_index,
                epoch=pkt.epoch,
                last_seen=self.sim.now,
            )
            self.entities[pkt.entity_id] = rec
            self.stats.adp_advertises += 1
            if returning and self.supervisor is not None:
                self.supervisor.notify_returned(rec.name)
            if self.on_available is not None:
                self.on_available(rec, returning)
            if self.auto_enumerate and rec.mgmt_port:
                self.enumerate(rec.entity_id)
        elif pkt.message_type == ADP_DEPARTING:
            if rec is not None and rec.state == ENT_AVAILABLE:
                rec.state = ENT_DEPARTED
                rec.last_seen = self.sim.now
                self.stats.departs += 1
                if self.on_departed is not None:
                    self.on_departed(rec)

    def _scan_leases(self) -> None:
        now = self.sim.now
        for rec in self.entities.values():
            # a foreign advert may carry no lease of its own
            valid = rec.valid_time or DEFAULT_VALID_TIME
            if rec.state == ENT_EXPIRED:
                # still silent a whole lease after the last report (say
                # a driven restart did not take): report it again
                if self.supervisor is not None and lease_expired(
                    now, rec.expired_at, valid
                ):
                    rec.expired_at = now
                    self.supervisor.notify_lease_expired(rec.name)
                continue
            if rec.state != ENT_AVAILABLE:
                continue
            if lease_expired(now, rec.last_seen, valid):
                rec.state = ENT_EXPIRED
                rec.expired_at = now
                self.stats.expiries += 1
                if self.supervisor is not None:
                    self.supervisor.notify_lease_expired(rec.name)
                if self.on_expired is not None:
                    self.on_expired(rec)
        self._txns = [t for t in self._txns if t.alive]

    # -- transactions --------------------------------------------------------

    def _txn_deadline(self, attempt: int) -> float:
        """Seeded retry timeout: linear back-off plus deterministic
        jitter drawn from the controller's RNG."""
        jitter = 1.0 + self._rng.random() * TIMEOUT_JITTER
        return self.txn_timeout * (attempt + 1) * jitter

    def _spawn(self, txn, label: str, rec: EntityRecord) -> Process:
        proc = self.machine.spawn(txn, name=f"{self.name}/{label}:{rec.name}")
        self._txns.append(proc)
        return proc

    def _transact(
        self,
        rec: EntityRecord,
        build: Callable[[int], object],
        accept: Callable[[object], object],
    ):
        """The one command/response loop behind every AECP and ACMP
        transaction.  ``build(seq)`` makes the command PDU;
        ``accept(pkt)``, offered only PDUs echoing that ``seq``, returns
        ``None`` for anything but the matching response, ``False`` for a
        refusal, and the result otherwise.  Returns ``(result, resends)``:
        the accepted result or refusal (``None`` once every attempt has
        timed out) and how many times the command was resent."""
        sock = self.stack.socket()
        try:
            for attempt in range(self.txn_retries):
                self._seq += 1
                seq = self._seq
                cmd = build(seq)
                yield self.machine.cpu.run(
                    self.PROCESS_CYCLES, domain="user"
                )
                sock.sendto(cmd.encode(), (rec.ip, rec.mgmt_port))
                deadline = self.sim.now + self._txn_deadline(attempt)
                while True:
                    remaining = deadline - self.sim.now
                    if remaining <= 0:
                        break
                    try:
                        msg = yield Timeout(sock.recv(), remaining)
                    except TimeoutError:
                        break
                    try:
                        pkt = parse_packet(msg.payload)
                    except ProtocolError:
                        continue
                    if pkt.seq != seq:
                        continue
                    result = accept(pkt)
                    if result is not None:
                        return result, attempt
            return None, max(self.txn_retries - 1, 0)
        finally:
            sock.close()

    def _aecp(self, rec: EntityRecord, command: int, fields):
        """An AECP command transaction; returns ``(fields, resends)``
        with the response's archive fields decoded, or a falsy value on
        refusal or timeout."""

        def build(seq: int) -> AecpPacket:
            return AecpPacket(
                entity_id=rec.entity_id,
                message_type=AECP_COMMAND,
                command=command,
                payload=pack_archive(fields) if fields else b"",
                seq=seq,
            )

        def accept(pkt):
            if not (
                isinstance(pkt, AecpPacket)
                and pkt.message_type == AECP_RESPONSE
                and pkt.command == command
                and pkt.entity_id == rec.entity_id
            ):
                return None
            if pkt.status != AECP_OK:
                return False
            try:
                reply = unpack_archive(bytes(pkt.payload))
            except ValueError:
                return None
            return {
                k: v.decode("utf-8", errors="replace")
                for k, v in reply.items()
            }

        return (yield from self._transact(rec, build, accept))

    def enumerate(self, entity_id: int) -> Process:
        """Spawn an AECP READ_DESCRIPTOR transaction; the process result
        is ``True`` on success."""
        rec = self.entities[entity_id]
        return self._spawn(self._enumerate(rec), "aecp", rec)

    def _enumerate(self, rec: EntityRecord):
        descriptor, resends = yield from self._aecp(
            rec, AECP_READ_DESCRIPTOR, None
        )
        self.stats.enumeration_retries += resends
        if not descriptor:
            self.stats.enumeration_failures += 1
            return False
        rec.descriptor = descriptor
        self.stats.enumerations += 1
        return True

    def set_gain(self, entity_id: int, gain: float) -> Process:
        """Spawn an AECP SET_CONTROL transaction setting the entity's
        output gain; the process result is ``True`` on success."""
        rec = self.entities[entity_id]
        return self._spawn(self._set_gain(rec, gain), "aecp-gain", rec)

    def _set_gain(self, rec: EntityRecord, gain: float):
        applied, resends = yield from self._aecp(
            rec, AECP_SET_CONTROL, {"gain": repr(gain).encode()}
        )
        self.stats.gain_set_retries += resends
        if not applied:
            self.stats.gain_set_failures += 1
            return False
        if rec.descriptor is not None:
            rec.descriptor.update(applied)
        self.stats.gain_sets += 1
        return True

    def connect(
        self,
        listener_entity_id: int,
        group_ip: str,
        port: int,
        channel_id: int,
        talker_entity_id: int = 0,
    ) -> Process:
        """Spawn an ACMP CONNECT_RX transaction tuning the listener to a
        talker's stream; the process result is ``True`` on success."""
        rec = self.entities[listener_entity_id]
        return self._spawn(
            self._acmp(
                rec, ACMP_CONNECT_RX_COMMAND,
                group_ip, port, channel_id, talker_entity_id,
            ),
            "acmp-connect", rec,
        )

    def disconnect(
        self, listener_entity_id: int, talker_entity_id: int = 0
    ) -> Process:
        """Spawn an ACMP DISCONNECT_RX transaction parking the listener."""
        rec = self.entities[listener_entity_id]
        return self._spawn(
            self._acmp(
                rec, ACMP_DISCONNECT_RX_COMMAND,
                "0.0.0.0", 0, 0, talker_entity_id,
            ),
            "acmp-disconnect", rec,
        )

    def _acmp(
        self,
        rec: EntityRecord,
        message_type: int,
        group_ip: str,
        port: int,
        channel_id: int,
        talker_entity_id: int,
    ):
        want = (
            ACMP_CONNECT_RX_RESPONSE
            if message_type == ACMP_CONNECT_RX_COMMAND
            else ACMP_DISCONNECT_RX_RESPONSE
        )

        def build(seq: int) -> AcmpPacket:
            return AcmpPacket(
                message_type=message_type,
                talker_entity_id=talker_entity_id,
                listener_entity_id=rec.entity_id,
                group_ip=group_ip,
                port=port,
                channel_id=channel_id,
                seq=seq,
            )

        def accept(pkt):
            if (
                isinstance(pkt, AcmpPacket)
                and pkt.message_type == want
                and pkt.listener_entity_id == rec.entity_id
            ):
                return pkt.status == ACMP_OK
            return None

        ok, resends = yield from self._transact(rec, build, accept)
        self.stats.acmp_retries += resends
        if not ok:
            self.stats.acmp_failures += 1
            return False
        if message_type == ACMP_CONNECT_RX_COMMAND:
            rec.connected = (group_ip, port, channel_id)
            rec.channel_id = channel_id
            self.stats.acmp_connects += 1
            if self.on_connected is not None:
                self.on_connected(rec, channel_id)
        else:
            rec.connected = None
            rec.channel_id = 0
            self.stats.acmp_disconnects += 1
            if self.on_disconnected is not None:
                self.on_disconnected(rec)
        return True
