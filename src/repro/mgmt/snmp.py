"""A small SNMP-flavoured management protocol and the ES MIB (§5.3).

"We want to investigate the entire range of management actions that may
be carried out on ESs and create an SNMP MIB to allow any NMS console to
manage ESs."

This is GET/GETNEXT over UDP with the archive framing — not ASN.1/BER
(nothing in the experiments needs that fidelity) — but the data model is a
real OID tree with lexicographic GETNEXT walking and an agent/manager
pair.  The MIB is a read-only view: an NMS console can watch a speaker
here, but every change (tune, volume, override) goes over ACMP/AECP from
the :class:`repro.mgmt.controller.FleetController`, and a SET is refused
as an unknown operation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.platform.archive import pack_archive, unpack_archive
from repro.sim.process import Process, Timeout

SNMP_PORT = 161

#: enterprise base for the Ethernet Speaker MIB
ES_MIB_BASE = "1.3.6.1.4.1.5550"

Oid = Tuple[int, ...]


def parse_oid(text: str) -> Oid:
    return tuple(int(part) for part in text.split("."))


def format_oid(oid: Oid) -> str:
    return ".".join(str(part) for part in oid)


class MibTree:
    """OID -> getter with ordered traversal."""

    def __init__(self):
        self._objects: Dict[Oid, Callable[[], bytes]] = {}

    def register(self, oid: str, getter: Callable[[], bytes]) -> None:
        self._objects[parse_oid(oid)] = getter

    def get(self, oid: str) -> Optional[bytes]:
        getter = self._objects.get(parse_oid(oid))
        return getter() if getter is not None else None

    def get_next(self, oid: str) -> Optional[Tuple[str, bytes]]:
        """The first object lexicographically after ``oid``."""
        target = parse_oid(oid) if oid else ()
        following = sorted(o for o in self._objects if o > target)
        if not following:
            return None
        nxt = following[0]
        return format_oid(nxt), self._objects[nxt]()

    def walk(self) -> List[Tuple[str, bytes]]:
        return [
            (format_oid(oid), getter())
            for oid, getter in sorted(self._objects.items())
        ]


def build_es_mib(speaker, node=None) -> MibTree:
    """The Ethernet Speaker MIB: identity, stream stats, control state."""
    mib = MibTree()
    machine = speaker.machine
    base = ES_MIB_BASE

    mib.register(f"{base}.1.1", lambda: speaker.name.encode())
    mib.register(
        f"{base}.1.2", lambda: str(machine.sim.now).encode()
    )  # uptime
    mib.register(f"{base}.1.3", lambda: machine.net.ip.encode())
    # stream state
    mib.register(f"{base}.2.1", lambda: speaker.state.encode())
    mib.register(
        f"{base}.2.2",
        lambda: f"{speaker.group_ip}:{speaker.port}".encode(),
    )
    mib.register(
        f"{base}.2.3", lambda: str(speaker.stats.data_rx).encode()
    )
    mib.register(
        f"{base}.2.4", lambda: str(speaker.stats.late_dropped).encode()
    )
    mib.register(
        f"{base}.2.5", lambda: str(speaker.stats.seq_gaps).encode()
    )
    if node is not None:
        mib.register(
            f"{base}.2.6", lambda: str(node.device.underruns).encode()
        )
    # control state (set over AECP/ACMP, read here)
    mib.register(f"{base}.3.1", lambda: repr(speaker.gain).encode())
    mib.register(
        f"{base}.3.2",
        lambda: f"{speaker.group_ip}:{speaker.port}".encode(),
    )
    return mib


class SnmpAgent:
    """Serves a MIB read-only on UDP 161: GET and GETNEXT answer, any
    other operation (SET included) gets ``badop``."""

    def __init__(self, machine, mib: MibTree, port: int = SNMP_PORT):
        self.machine = machine
        self.mib = mib
        self.port = port
        self.requests = 0

    def start(self) -> Process:
        return self.machine.spawn(self._run(), name="snmpd")

    def _run(self):
        sock = self.machine.net.socket(self.port)
        while True:
            msg = yield sock.recv()
            try:
                fields = unpack_archive(msg.payload)
            except ValueError:
                continue
            self.requests += 1
            yield self.machine.cpu.run(15_000, domain="user")
            op = fields.get("op", b"")
            oid = fields.get("oid", b"").decode()
            if op == b"get":
                value = self.mib.get(oid)
                reply = (
                    {"status": b"ok", "oid": oid.encode(), "value": value}
                    if value is not None
                    else {"status": b"nosuch", "oid": oid.encode()}
                )
            elif op == b"getnext":
                nxt = self.mib.get_next(oid)
                reply = (
                    {"status": b"ok", "oid": nxt[0].encode(), "value": nxt[1]}
                    if nxt is not None
                    else {"status": b"end"}
                )
            else:
                reply = {"status": b"badop"}
            sock.sendto(pack_archive(reply), msg.src)


class SnmpManager:
    """NMS-console helpers; all methods are generators (network I/O)."""

    def __init__(self, machine, timeout: float = 1.0):
        self.machine = machine
        self.timeout = timeout
        self._sock = None

    def _request(self, agent_ip: str, fields: Dict[str, bytes]):
        if self._sock is None:
            self._sock = self.machine.net.socket()
        self._sock.sendto(pack_archive(fields), (agent_ip, SNMP_PORT))
        msg = yield Timeout(self._sock.recv(), self.timeout)
        return unpack_archive(msg.payload)

    def get(self, agent_ip: str, oid: str):
        reply = yield from self._request(
            agent_ip, {"op": b"get", "oid": oid.encode()}
        )
        return reply.get("value") if reply.get("status") == b"ok" else None

    def walk(self, agent_ip: str):
        """GETNEXT sweep of the whole tree."""
        results = []
        oid = ""
        while True:
            reply = yield from self._request(
                agent_ip, {"op": b"getnext", "oid": oid.encode()}
            )
            if reply.get("status") != b"ok":
                break
            oid = reply["oid"].decode()
            results.append((oid, reply["value"]))
        return results
