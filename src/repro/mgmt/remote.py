"""The speaker side of central control (§5.3).

"All ESs within an administrative domain may need to be controlled
centrally (e.g., movies shown on TV sets on airplane seats can be
overridden by crew announcements)."

Each advertised speaker runs a :class:`ManagementAgent` that answers the
:class:`repro.mgmt.controller.FleetController`'s ATDECC-style PDUs: ACMP
CONNECT_RX/DISCONNECT_RX retune or park it, AECP READ_DESCRIPTOR reads
its descriptor and AECP SET_CONTROL sets its gain.  Tune-all, override
and release are ACMP connects issued per speaker
(:meth:`repro.core.system.EthernetSpeakerSystem.override` /
``release``); census is a registry query (``controller.census``).
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, Optional

from repro.core.protocol import (
    ACMP_CONNECT_RX_COMMAND,
    ACMP_CONNECT_RX_RESPONSE,
    ACMP_DISCONNECT_RX_COMMAND,
    ACMP_DISCONNECT_RX_RESPONSE,
    ACMP_OK,
    AECP_BAD_ARGUMENTS,
    AECP_COMMAND,
    AECP_NO_SUCH_DESCRIPTOR,
    AECP_OK,
    AECP_READ_DESCRIPTOR,
    AECP_RESPONSE,
    AECP_SET_CONTROL,
    AcmpPacket,
    AecpPacket,
    ProtocolError,
    parse_packet,
)
from repro.platform.archive import pack_archive, unpack_archive
from repro.sim.process import Process

MGMT_PORT = 4998


class ManagementAgent:
    """Per-speaker command executor.

    Answers the controller's binary PDUs on its management port: AECP
    READ_DESCRIPTOR (unicast reply with the speaker's descriptor), AECP
    SET_CONTROL (apply the gain, echo it) and ACMP
    CONNECT_RX/DISCONNECT_RX (retune the speaker — starting it on first
    connect if it booted parked — and acknowledge).  When the machine
    has a management NIC the agent binds there, keeping control-plane
    churn off the audio LAN.
    """

    def __init__(self, speaker, entity_id: int = 0):
        self.speaker = speaker
        self.machine = speaker.machine
        self.entity_id = entity_id
        self.acmp_handled = 0
        self.aecp_handled = 0
        self.on_connected: Optional[Callable[[int], None]] = None
        self.on_disconnected: Optional[Callable[[], None]] = None

    def start(self) -> Process:
        return self.machine.spawn(self._run(), name="mgmt-agent")

    def _run(self):
        sock = self.machine.control_stack.socket(MGMT_PORT)
        while True:
            msg = yield sock.recv()
            try:
                pdu = parse_packet(msg.payload)
            except ProtocolError:
                continue
            yield self.machine.cpu.run(10_000, domain="user")
            if isinstance(pdu, AecpPacket):
                self._handle_aecp(sock, pdu, msg.src)
            elif isinstance(pdu, AcmpPacket):
                self._handle_acmp(sock, pdu, msg.src)

    # -- ATDECC-style PDUs ----------------------------------------------------

    def descriptor(self) -> Dict[str, bytes]:
        sp = self.speaker
        return {
            "entity": str(self.entity_id).encode(),
            "name": sp.name.encode(),
            "group": (sp.group_ip or "").encode(),
            "port": str(sp.port).encode(),
            "gain": repr(sp.gain).encode(),
        }

    def _set_control(self, payload: bytes):
        """Apply a SET_CONTROL payload; returns the applied values, or
        ``None`` when the arguments are malformed."""
        try:
            gain = float(unpack_archive(payload)["gain"])
        except (KeyError, ValueError, struct.error):
            return None
        if not (math.isfinite(gain) and gain >= 0.0):
            return None
        self.speaker.gain = gain
        return {"gain": repr(gain).encode()}

    def _handle_aecp(self, sock, pkt: AecpPacket, src) -> None:
        if pkt.message_type != AECP_COMMAND:
            return
        if pkt.entity_id != self.entity_id:
            return
        fields = None
        if pkt.command == AECP_READ_DESCRIPTOR:
            fields = self.descriptor()
            status = AECP_OK
        elif pkt.command == AECP_SET_CONTROL:
            fields = self._set_control(bytes(pkt.payload))
            status = AECP_OK if fields is not None else AECP_BAD_ARGUMENTS
        else:
            status = AECP_NO_SUCH_DESCRIPTOR
        reply = AecpPacket(
            entity_id=self.entity_id,
            message_type=AECP_RESPONSE,
            command=pkt.command,
            status=status,
            payload=pack_archive(fields) if fields is not None else b"",
            seq=pkt.seq,
        )
        sock.sendto(reply.encode(), src)
        self.aecp_handled += 1

    def _handle_acmp(self, sock, pkt: AcmpPacket, src) -> None:
        if pkt.listener_entity_id != self.entity_id:
            return
        speaker = self.speaker
        if pkt.message_type == ACMP_CONNECT_RX_COMMAND:
            reply_type = ACMP_CONNECT_RX_RESPONSE
            speaker.retune(pkt.group_ip, pkt.port)
            if speaker._proc is None:
                # booted parked: first CONNECT starts the receive loop
                speaker.start()
            if self.on_connected is not None:
                self.on_connected(pkt.channel_id)
        elif pkt.message_type == ACMP_DISCONNECT_RX_COMMAND:
            reply_type = ACMP_DISCONNECT_RX_RESPONSE
            speaker.retune(None, 0)
            if self.on_disconnected is not None:
                self.on_disconnected()
        else:
            return
        reply = AcmpPacket(
            message_type=reply_type,
            talker_entity_id=pkt.talker_entity_id,
            listener_entity_id=pkt.listener_entity_id,
            group_ip=pkt.group_ip,
            port=pkt.port,
            channel_id=pkt.channel_id,
            status=ACMP_OK,
            seq=pkt.seq,
        )
        sock.sendto(reply.encode(), src)
        self.acmp_handled += 1
