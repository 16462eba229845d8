"""Addressing helpers and wire-size accounting."""

from __future__ import annotations

from functools import lru_cache

#: Ethernet framing cost per packet: preamble+SFD (8) + header (14) +
#: FCS (4) + minimum inter-frame gap (12)
ETHER_OVERHEAD = 38

#: IPv4 (20) + UDP (8) headers
UDP_IP_OVERHEAD = 28

#: Ethernet payload MTU
MTU = 1500


@lru_cache(maxsize=1024)
def is_multicast(ip: str) -> bool:
    """True for IPv4 class-D addresses (224.0.0.0/4).

    Memoised: every NIC on a segment asks this of every frame's
    destination, and a run sees only a handful of distinct addresses.
    """
    try:
        first = int(ip.split(".", 1)[0])
    except (ValueError, AttributeError):
        return False
    return 224 <= first <= 239


def is_broadcast(ip: str) -> bool:
    return ip == "255.255.255.255"


def wire_bytes(payload_len: int) -> int:
    """Bytes a UDP payload occupies on the Ethernet wire, including
    fragmentation into MTU-sized IP fragments when oversized."""
    if payload_len <= MTU - UDP_IP_OVERHEAD:
        return payload_len + UDP_IP_OVERHEAD + ETHER_OVERHEAD
    # rough fragmentation model: each fragment repeats IP+Ethernet costs
    frag_payload = MTU - 20
    fragments = (payload_len + 8 + frag_payload - 1) // frag_payload
    return payload_len + 8 + fragments * (20 + ETHER_OVERHEAD)
