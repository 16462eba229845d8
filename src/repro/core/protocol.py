"""Wire format of the Ethernet Speaker protocol.

Design requirements from §2.3:

* **Control packets** are sent "at regular intervals with the configuration
  of the audio driver", carrying a producer wall-clock timestamp; a speaker
  "has to wait till it receives a control packet before it can start
  playing".  The producer therefore keeps no per-speaker state and the
  speakers never transmit.
* **Data packets** carry "a timestamp ... that instructs the ES when it
  should play the data", expressed relative to the control packets' wall
  clock (§3.2).
* **Announce packets** implement the MFTP-style out-of-band catalog the
  paper plans in §4.3: a separate multicast group lists the channels being
  transmitted so speakers can tune without listening to every stream.

All integers little-endian; one packet per UDP datagram.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.audio.params import AudioEncoding, AudioParams
from repro.codec.base import CodecID

MAGIC = 0xE55A
VERSION = 1

TYPE_CONTROL = 1
TYPE_DATA = 2
TYPE_ANNOUNCE = 3
# the ATDECC-style control plane (after IEEE 1722.1): discovery,
# enumeration, and connection management ride the same wire format
TYPE_ADP = 4    # entity advertisement (AVAILABLE / DEPARTING / DISCOVER)
TYPE_AECP = 5   # entity command/response (descriptor read, control set)
TYPE_ACMP = 6   # talker->listener connect/disconnect transactions
# application-layer FEC for WAN hops: one parity frame protecting a
# sliding group of data frames, repaired receiver-side with zero reverse
# traffic (the paper's §6 internet-radio links are exactly where a NACK
# reverse path is slow, lossy, or absent)
TYPE_FEC = 7

# magic, version, type, channel_id, seq, epoch — the epoch identifies the
# producer incarnation feeding the channel: a warm-standby takeover (or an
# operator-forced restart) increments it so speakers re-anchor their clock
# and sequence state instead of misreading the new producer as drift
_COMMON = struct.Struct("<HBBHIH")
_CONTROL = struct.Struct("<ddBIBBB")  # wall_clock, stream_pos, enc, rate,
                                      # channels, codec, quality
_DATA = struct.Struct("<dBBI")  # play_at, codec, flags, pcm_bytes
_ANNOUNCE_HEAD = struct.Struct("<dB")  # valid_time lease, entry count
_ANNOUNCE_ENTRY = struct.Struct("<H4sHB")  # channel_id, ip, port, codec
# message_type, entity_kind, entity_id, valid_time, available_index,
# channel_id served (0 = untuned), mgmt_port
_ADP = struct.Struct("<BBQdHHH")
# message_type, command, status, target entity_id, payload length
_AECP = struct.Struct("<BBBQH")
# message_type, status, talker entity_id, listener entity_id, stream
# group ip, stream port, channel_id
_ACMP = struct.Struct("<BBQQ4sHH")
# body_crc guards the whole FEC body (a corrupt parity frame must never
# be allowed to "repair" anything); then base_seq, k data members, r
# parity frames for the group, this frame's parity_index, the interleave
# stride between member seqs, and the parity payload length
_FEC_CRC = struct.Struct("<I")
_FEC_GEOM = struct.Struct("<IBBBBH")   # base_seq, k, r, parity_index,
                                       # stride, payload_len
_FEC_MEMBER = struct.Struct("<HI")     # member wire length, member crc32

# pre-composed whole-header structs for the hot pack/parse paths: one
# ``pack`` call per data packet instead of two packs plus a concatenation
_DATA_HEADER = struct.Struct("<HBBHIHdBBI")      # _COMMON + _DATA
_CONTROL_HEADER = struct.Struct("<HBBHIHddBIBBB")  # _COMMON + _CONTROL

#: DataPacket.flags bit: payload is synthetic filler of the right size, not
#: a decodable codec block (used by pure-performance scenarios)
FLAG_SYNTHETIC = 0x01

# -- ADP message types (after IEEE 1722.1 §6.2) -------------------------------
ADP_AVAILABLE = 0    # "I exist": refreshes the valid_time lease
ADP_DEPARTING = 1    # clean shutdown: listeners drop the entity immediately
ADP_DISCOVER = 2     # controller probe: entities re-advertise now

#: ADP entity kinds
ENTITY_SPEAKER = 1
ENTITY_REBROADCASTER = 2
ENTITY_STANDBY = 3
ENTITY_RELAY = 4
ENTITY_CONTROLLER = 5

# -- AECP message/command/status codes ----------------------------------------
AECP_COMMAND = 0
AECP_RESPONSE = 1
AECP_READ_DESCRIPTOR = 0
AECP_SET_CONTROL = 1      # payload: archive of control values ({"gain": ...})
AECP_OK = 0
AECP_NO_SUCH_DESCRIPTOR = 1
AECP_BAD_ARGUMENTS = 2

# -- ACMP message/status codes ------------------------------------------------
ACMP_CONNECT_RX_COMMAND = 0
ACMP_CONNECT_RX_RESPONSE = 1
ACMP_DISCONNECT_RX_COMMAND = 2
ACMP_DISCONNECT_RX_RESPONSE = 3
ACMP_OK = 0
ACMP_REFUSED = 1


class ProtocolError(Exception):
    """Malformed or foreign packet."""


@dataclass(frozen=True)
class ControlPacket:
    """Periodic stream configuration + the producer's wall clock.

    ``wall_clock`` is the producer's clock when the packet was built;
    ``stream_pos`` is the playback position (seconds of audio sent so far).
    Together they anchor every speaker to the same playout schedule.
    """

    channel_id: int
    seq: int
    wall_clock: float
    stream_pos: float
    params: AudioParams
    codec_id: CodecID = CodecID.RAW
    quality: int = 10
    name: str = ""
    epoch: int = 0

    def encode(self) -> bytes:
        name_bytes = self.name.encode("utf-8")[:255]
        return (
            _CONTROL_HEADER.pack(
                MAGIC,
                VERSION,
                TYPE_CONTROL,
                self.channel_id,
                self.seq,
                self.epoch,
                self.wall_clock,
                self.stream_pos,
                self.params.encoding.wire_id,
                self.params.sample_rate,
                self.params.channels,
                int(self.codec_id),
                self.quality,
            )
            + bytes([len(name_bytes)])
            + name_bytes
        )


@dataclass(frozen=True)
class DataPacket:
    """One block of (possibly compressed) audio plus its play deadline."""

    channel_id: int
    seq: int
    play_at: float
    #: ``bytes`` when built locally; parsing returns a read-only
    #: ``memoryview`` into the received datagram (zero-copy) — the two
    #: compare equal and both feed every decoder unchanged
    payload: bytes
    codec_id: CodecID = CodecID.RAW
    synthetic: bool = False
    pcm_bytes: int = 0
    epoch: int = 0

    def encode(self) -> bytes:
        flags = FLAG_SYNTHETIC if self.synthetic else 0
        header = _DATA_HEADER.pack(
            MAGIC, VERSION, TYPE_DATA, self.channel_id, self.seq,
            self.epoch, self.play_at, int(self.codec_id), flags,
            self.pcm_bytes,
        )
        payload = self.payload
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        return header + payload


@dataclass(frozen=True)
class AnnounceEntry:
    channel_id: int
    group_ip: str
    port: int
    codec_id: CodecID
    name: str


@dataclass(frozen=True)
class AnnouncePacket:
    """Out-of-band channel catalog (§4.3, after MFTP).

    ``valid_time`` is the in-band lease: how long a listener may treat
    the advertised entries as live without a refresh.  0.0 means the
    announcer made no promise and the listener falls back to its local
    expiry policy (the pre-lease behaviour).
    """

    seq: int
    entries: Tuple[AnnounceEntry, ...] = ()
    epoch: int = 0
    valid_time: float = 0.0

    def encode(self) -> bytes:
        parts = [
            _COMMON.pack(
                MAGIC, VERSION, TYPE_ANNOUNCE, 0, self.seq, self.epoch
            ),
            _ANNOUNCE_HEAD.pack(self.valid_time, len(self.entries)),
        ]
        for entry in self.entries:
            ip_bytes = bytes(int(x) for x in entry.group_ip.split("."))
            name_bytes = entry.name.encode("utf-8")[:255]
            parts.append(
                _ANNOUNCE_ENTRY.pack(
                    entry.channel_id, ip_bytes, entry.port,
                    int(entry.codec_id),
                )
            )
            parts.append(bytes([len(name_bytes)]))
            parts.append(name_bytes)
        return b"".join(parts)


@dataclass(frozen=True)
class AdpPacket:
    """ADP-style entity advertisement (after IEEE 1722.1 §6.2).

    Every fleet node — speaker, rebroadcaster, standby, relay —
    multicasts ``ENTITY_AVAILABLE`` on the discovery group with a
    ``valid_time`` lease; a node that stops refreshing ages out of every
    registry at lease expiry with no supervisor's help.
    ``available_index`` is a wrapping u16 serial number bumped on every
    advertisement (and on state changes: boot, restart, failover epoch
    bump), so stale or replayed advertisements can never resurrect an
    older view of the entity.
    """

    entity_id: int
    message_type: int = ADP_AVAILABLE
    entity_kind: int = ENTITY_SPEAKER
    valid_time: float = 0.0
    available_index: int = 0
    channel_id: int = 0       # channel currently served/tuned; 0 = none
    mgmt_port: int = 0        # where AECP/ACMP commands reach this entity
    name: str = ""
    seq: int = 0
    epoch: int = 0

    def encode(self) -> bytes:
        name_bytes = self.name.encode("utf-8")[:255]
        return (
            _COMMON.pack(MAGIC, VERSION, TYPE_ADP, 0, self.seq, self.epoch)
            + _ADP.pack(
                self.message_type,
                self.entity_kind,
                self.entity_id,
                self.valid_time,
                self.available_index % AVAILABLE_INDEX_MOD,
                self.channel_id,
                self.mgmt_port,
            )
            + bytes([len(name_bytes)])
            + name_bytes
        )


@dataclass(frozen=True)
class AecpPacket:
    """AECP-style entity command/response (after IEEE 1722.1 §9).

    Two commands are implemented.  ``READ_DESCRIPTOR``: the controller
    asks an entity for its descriptor (channels served, gain, room, LAN)
    and the entity answers with an archive blob in ``payload``.
    ``SET_CONTROL``: the command's ``payload`` is an archive of control
    values (``{"gain": ...}``) and the response echoes what was applied.
    The common-header ``seq`` is the transaction id responses echo.
    """

    entity_id: int            # target (command) / responder (response)
    message_type: int = AECP_COMMAND
    command: int = AECP_READ_DESCRIPTOR
    status: int = AECP_OK
    payload: bytes = b""
    seq: int = 0
    epoch: int = 0

    def encode(self) -> bytes:
        payload = self.payload
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        return (
            _COMMON.pack(MAGIC, VERSION, TYPE_AECP, 0, self.seq, self.epoch)
            + _AECP.pack(
                self.message_type,
                self.command,
                self.status,
                self.entity_id,
                len(payload),
            )
            + payload
        )


@dataclass(frozen=True)
class AcmpPacket:
    """ACMP-style connection management (after IEEE 1722.1 §8).

    A tune/retune is a transaction: the controller sends
    ``CONNECT_RX_COMMAND`` naming the talker's stream (group/port/
    channel) to the listener's management port; the listener joins and
    answers ``CONNECT_RX_RESPONSE`` with a status.  The common-header
    ``seq`` is the transaction id; the controller retries on a seeded
    timeout until it hears the echo.
    """

    message_type: int
    talker_entity_id: int = 0
    listener_entity_id: int = 0
    group_ip: str = "0.0.0.0"
    port: int = 0
    channel_id: int = 0
    status: int = ACMP_OK
    seq: int = 0
    epoch: int = 0

    def encode(self) -> bytes:
        ip_bytes = bytes(int(x) for x in self.group_ip.split("."))
        return _COMMON.pack(
            MAGIC, VERSION, TYPE_ACMP, 0, self.seq, self.epoch
        ) + _ACMP.pack(
            self.message_type,
            self.status,
            self.talker_entity_id,
            self.listener_entity_id,
            ip_bytes,
            self.port,
            self.channel_id,
        )


@dataclass(frozen=True)
class FecPacket:
    """One parity frame protecting an interleaved group of data frames.

    The group is fully self-describing: members are the ``k`` data seqs
    ``base_seq + t * stride`` (mod 2**32) of the same channel and epoch,
    and the record table carries each member's wire length and crc32 so
    the receiver can (a) verify buffered copies before using them in a
    repair and (b) verify every reconstruction before injecting it.  The
    parity payload is the coefficient-weighted GF(256) sum of the
    members' whole wire images, zero-padded to the longest; ``r`` parity
    rows with distinct ``parity_index`` are emitted per group, and any
    surviving subset repairs up to that many erasures.  ``body_crc``
    covers everything after itself so a corrupted parity frame is
    rejected at parse time and can never corrupt a repair.

    The common-header ``seq`` mirrors ``base_seq`` so serial-number
    machinery (epoch restamping, header peeks) works unchanged.
    """

    channel_id: int
    base_seq: int
    k: int
    r: int
    parity_index: int
    stride: int
    member_sizes: Tuple[int, ...]
    member_crcs: Tuple[int, ...]
    payload: bytes
    epoch: int = 0

    @property
    def seq(self) -> int:
        return self.base_seq

    def member_seqs(self) -> Tuple[int, ...]:
        return tuple(
            (self.base_seq + t * self.stride) % SEQ_MOD
            for t in range(self.k)
        )

    def encode(self) -> bytes:
        payload = self.payload
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        body = (
            _FEC_GEOM.pack(
                self.base_seq, self.k, self.r, self.parity_index,
                self.stride, len(payload),
            )
            + b"".join(
                _FEC_MEMBER.pack(size, crc)
                for size, crc in zip(self.member_sizes, self.member_crcs)
            )
            + payload
        )
        return (
            _COMMON.pack(
                MAGIC, VERSION, TYPE_FEC, self.channel_id,
                self.base_seq, self.epoch,
            )
            + _FEC_CRC.pack(zlib.crc32(body))
            + body
        )


Packet = Union[
    ControlPacket, DataPacket, AnnouncePacket,
    AdpPacket, AecpPacket, AcmpPacket, FecPacket,
]


def parse_packet(data: bytes) -> Packet:
    """Decode any protocol packet; raises :class:`ProtocolError` on junk.

    Zero-copy: the input (``bytes`` or any C-contiguous buffer) is read
    in place via ``unpack_from`` with absolute offsets — no body slice is
    materialised, and a :class:`DataPacket`'s ``payload`` is a read-only
    ``memoryview`` into the datagram rather than a copy.
    """
    total = len(data)
    if total < _COMMON.size:
        raise ProtocolError(f"short packet ({total} bytes)")
    magic, version, ptype, channel_id, seq, epoch = _COMMON.unpack_from(
        data, 0
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic:#x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    try:
        if ptype == TYPE_CONTROL:
            return _parse_control(
                channel_id, seq, epoch, data, _COMMON.size, total
            )
        if ptype == TYPE_DATA:
            return _parse_data(
                channel_id, seq, epoch, data, _COMMON.size, total
            )
        if ptype == TYPE_ANNOUNCE:
            return _parse_announce(seq, epoch, data, _COMMON.size, total)
        if ptype == TYPE_ADP:
            return _parse_adp(seq, epoch, data, _COMMON.size, total)
        if ptype == TYPE_AECP:
            return _parse_aecp(seq, epoch, data, _COMMON.size, total)
        if ptype == TYPE_ACMP:
            return _parse_acmp(seq, epoch, data, _COMMON.size, total)
        if ptype == TYPE_FEC:
            return _parse_fec(
                channel_id, seq, epoch, data, _COMMON.size, total
            )
    except (struct.error, ValueError, IndexError) as err:
        raise ProtocolError(f"malformed packet: {err}") from None
    raise ProtocolError(f"unknown packet type {ptype}")


def _parse_control(
    channel_id: int, seq: int, epoch: int, data, base: int, total: int
) -> ControlPacket:
    (wall_clock, stream_pos, enc, rate, channels, codec, quality) = (
        _CONTROL.unpack_from(data, base)
    )
    offset = base + _CONTROL.size
    if offset >= total:
        raise ProtocolError(
            "control packet length mismatch: missing name length byte"
        )
    name_len = data[offset]
    # strict framing: the name length byte must describe exactly the rest
    # of the datagram, so a truncated packet can never parse as a shorter
    # name and trailing junk can never ride along unnoticed
    if total != offset + 1 + name_len:
        raise ProtocolError(
            f"control packet length mismatch: name_len={name_len}, "
            f"{total - offset - 1} bytes follow"
        )
    name = str(memoryview(data)[offset + 1 : offset + 1 + name_len], "utf-8")
    return ControlPacket(
        channel_id=channel_id,
        seq=seq,
        wall_clock=wall_clock,
        stream_pos=stream_pos,
        params=AudioParams(AudioEncoding.from_wire_id(enc), rate, channels),
        codec_id=CodecID(codec),
        quality=quality,
        name=name,
        epoch=epoch,
    )


def _parse_data(
    channel_id: int, seq: int, epoch: int, data, base: int, total: int
) -> DataPacket:
    play_at, codec, flags, pcm_bytes = _DATA.unpack_from(data, base)
    view = memoryview(data)
    if not view.readonly:
        view = view.toreadonly()
    return DataPacket(
        channel_id=channel_id,
        seq=seq,
        play_at=play_at,
        payload=view[base + _DATA.size :],
        codec_id=CodecID(codec),
        synthetic=bool(flags & FLAG_SYNTHETIC),
        pcm_bytes=pcm_bytes,
        epoch=epoch,
    )


def _parse_announce(
    seq: int, epoch: int, data, base: int, total: int
) -> AnnouncePacket:
    valid_time, count = _ANNOUNCE_HEAD.unpack_from(data, base)
    offset = base + _ANNOUNCE_HEAD.size
    view = memoryview(data)
    entries = []
    for _ in range(count):
        channel_id, ip_bytes, port, codec = _ANNOUNCE_ENTRY.unpack_from(
            data, offset
        )
        offset += _ANNOUNCE_ENTRY.size
        if offset >= total:
            raise ProtocolError(
                "announce entry truncated: missing name length byte"
            )
        name_len = data[offset]
        if total < offset + 1 + name_len:
            raise ProtocolError(
                f"announce entry truncated inside name ({name_len} "
                f"declared, {total - offset - 1} present)"
            )
        name = str(view[offset + 1 : offset + 1 + name_len], "utf-8")
        offset += 1 + name_len
        entries.append(
            AnnounceEntry(
                channel_id=channel_id,
                group_ip=".".join(str(b) for b in ip_bytes),
                port=port,
                codec_id=CodecID(codec),
                name=name,
            )
        )
    if offset != total:
        # strict framing, like control packets: the count byte and the
        # per-entry name lengths promise every byte of the datagram, so
        # trailing junk can never ride along unnoticed
        raise ProtocolError(
            f"announce packet length mismatch: {total - offset} trailing "
            "bytes"
        )
    return AnnouncePacket(
        seq=seq, entries=tuple(entries), epoch=epoch, valid_time=valid_time
    )


def _parse_adp(
    seq: int, epoch: int, data, base: int, total: int
) -> AdpPacket:
    (
        message_type, entity_kind, entity_id, valid_time,
        available_index, channel_id, mgmt_port,
    ) = _ADP.unpack_from(data, base)
    offset = base + _ADP.size
    if offset >= total:
        raise ProtocolError("adp packet truncated: missing name length byte")
    name_len = data[offset]
    if total != offset + 1 + name_len:
        raise ProtocolError(
            f"adp packet length mismatch: name_len={name_len}, "
            f"{total - offset - 1} bytes follow"
        )
    name = str(memoryview(data)[offset + 1 : offset + 1 + name_len], "utf-8")
    return AdpPacket(
        entity_id=entity_id,
        message_type=message_type,
        entity_kind=entity_kind,
        valid_time=valid_time,
        available_index=available_index,
        channel_id=channel_id,
        mgmt_port=mgmt_port,
        name=name,
        seq=seq,
        epoch=epoch,
    )


def _parse_aecp(
    seq: int, epoch: int, data, base: int, total: int
) -> AecpPacket:
    message_type, command, status, entity_id, payload_len = (
        _AECP.unpack_from(data, base)
    )
    offset = base + _AECP.size
    if total != offset + payload_len:
        raise ProtocolError(
            f"aecp packet length mismatch: payload_len={payload_len}, "
            f"{total - offset} bytes follow"
        )
    return AecpPacket(
        entity_id=entity_id,
        message_type=message_type,
        command=command,
        status=status,
        payload=bytes(memoryview(data)[offset:total]),
        seq=seq,
        epoch=epoch,
    )


def _parse_acmp(
    seq: int, epoch: int, data, base: int, total: int
) -> AcmpPacket:
    if total != base + _ACMP.size:
        raise ProtocolError(
            f"acmp packet length mismatch: {total - base} body bytes, "
            f"{_ACMP.size} expected"
        )
    (
        message_type, status, talker_entity_id, listener_entity_id,
        ip_bytes, port, channel_id,
    ) = _ACMP.unpack_from(data, base)
    return AcmpPacket(
        message_type=message_type,
        talker_entity_id=talker_entity_id,
        listener_entity_id=listener_entity_id,
        group_ip=".".join(str(b) for b in ip_bytes),
        port=port,
        channel_id=channel_id,
        status=status,
        seq=seq,
        epoch=epoch,
    )


def _parse_fec(
    channel_id: int, seq: int, epoch: int, data, base: int, total: int
) -> FecPacket:
    if total < base + _FEC_CRC.size + _FEC_GEOM.size:
        raise ProtocolError(
            f"fec packet length mismatch: {total - base} body bytes, "
            f">= {_FEC_CRC.size + _FEC_GEOM.size} expected"
        )
    (body_crc,) = _FEC_CRC.unpack_from(data, base)
    body_start = base + _FEC_CRC.size
    # integrity before structure: a corrupt parity frame must be rejected
    # outright, never partially decoded into something a repair could use
    if zlib.crc32(memoryview(data)[body_start:total]) != body_crc:
        raise ProtocolError("fec packet body crc mismatch")
    base_seq, k, r, parity_index, stride, payload_len = (
        _FEC_GEOM.unpack_from(data, body_start)
    )
    if k < 1 or r < 1 or parity_index >= r or stride < 1:
        raise ProtocolError(
            f"fec geometry invalid: k={k} r={r} "
            f"parity_index={parity_index} stride={stride}"
        )
    if base_seq != seq:
        raise ProtocolError("fec base_seq does not mirror header seq")
    offset = body_start + _FEC_GEOM.size
    # strict framing: exactly k member records then exactly payload_len
    # parity bytes, nothing more
    if total != offset + k * _FEC_MEMBER.size + payload_len:
        raise ProtocolError(
            f"fec packet length mismatch: k={k}, payload_len={payload_len},"
            f" {total - offset} bytes follow the geometry"
        )
    sizes = []
    crcs = []
    for _ in range(k):
        size, crc = _FEC_MEMBER.unpack_from(data, offset)
        sizes.append(size)
        crcs.append(crc)
        offset += _FEC_MEMBER.size
    if payload_len and max(sizes) != payload_len:
        raise ProtocolError(
            "fec parity length must equal the longest member wire image"
        )
    return FecPacket(
        channel_id=channel_id,
        base_seq=base_seq,
        k=k,
        r=r,
        parity_index=parity_index,
        stride=stride,
        member_sizes=tuple(sizes),
        member_crcs=tuple(crcs),
        payload=bytes(memoryview(data)[offset:total]),
        epoch=epoch,
    )


_PEEK = struct.Struct("<HBB")  # magic, version, type


def peek_type(data) -> Optional[int]:
    """Packet type byte if ``data`` starts like one of ours, else None.

    A constant-cost probe for accounting paths (e.g. classifying what a
    dead receiver's socket dropped) that must not pay for a full parse.
    """
    if len(data) < _COMMON.size:
        return None
    magic, version, ptype = _PEEK.unpack_from(data, 0)
    if magic != MAGIC or version != VERSION:
        return None
    return ptype


def peek_header(data) -> Optional[Tuple[int, int, int, int]]:
    """``(type, channel_id, seq, epoch)`` if ``data`` starts like one of
    ours, else None.

    The tandem-free relay forwarding path: a WAN relay classifies and
    routes a wire packet from the common header alone — constant cost,
    zero copies, no payload decode (§6 keeps WAN pathologies out of the
    LAN protocol; the relay tree keeps them out of the *codec* too).
    """
    if len(data) < _COMMON.size:
        return None
    magic, version, ptype, channel_id, seq, epoch = _COMMON.unpack_from(
        data, 0
    )
    if magic != MAGIC or version != VERSION:
        return None
    return ptype, channel_id, seq, epoch


#: byte offset of the u16 epoch inside ``_COMMON`` ("<HBBHIH": magic@0,
#: version@2, type@3, channel_id@4, seq@6, epoch@10)
_EPOCH_OFFSET = 10
_EPOCH_FIELD = struct.Struct("<H")


def restamp_epoch(wire, epoch: int) -> bytes:
    """A copy of ``wire`` with the common-header epoch replaced.

    Relays that interposed a fallback incarnation map upstream epochs
    into their own serial-16 space on the way down; the payload — and
    everything else in the packet — passes through untouched.
    """
    buf = bytearray(wire)
    _EPOCH_FIELD.pack_into(buf, _EPOCH_OFFSET, epoch % EPOCH_MOD)
    return bytes(buf)


# -- serial-number arithmetic (RFC 1982 style) --------------------------------

SEQ_MOD = 1 << 32     # data/control ``seq`` is a wrapping u32
EPOCH_MOD = 1 << 16   # producer ``epoch`` is a wrapping u16


def seq_delta(new: int, old: int) -> int:
    """Forward distance from ``old`` to ``new`` in u32 serial space.

    0 means a duplicate; a value >= 2**31 means ``new`` is *behind*
    ``old`` (stale/reordered); anything else is the forward step, so a
    producer that wraps past 2**32 - 1 keeps a monotonic stream.
    """
    return (new - old) % SEQ_MOD


def epoch_newer(new: int, old: int) -> bool:
    """True when ``new`` is a later producer incarnation than ``old``."""
    return new != old and (new - old) % EPOCH_MOD < EPOCH_MOD // 2


#: ADP ``available_index`` lives in the same wrapping u16 serial space as
#: the producer epoch, and freshness uses the *same* comparison — the
#: discovery property suite pins ``index_newer`` to ``epoch_newer`` so the
#: two serial-16 rules can never drift apart
AVAILABLE_INDEX_MOD = EPOCH_MOD
index_newer = epoch_newer
