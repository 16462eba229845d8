"""Management and automation extensions the paper plans.

* :mod:`repro.mgmt.catalog` — the MFTP-inspired out-of-band channel
  catalog (§4.3): "a separate multicast group to announce the availability
  of data sets on other multicast groups", so "the user can see which
  programs are being multicast, rather than having to switch channels to
  monitor the audio transmissions".  Includes the listener-driven
  suspension idea (the MSNIP stand-in).
* :mod:`repro.mgmt.discovery` / :mod:`repro.mgmt.controller` — the
  ATDECC-style dynamic control plane and the one control transport:
  ADP entity advertisement with valid_time leases and serial-16
  available_index, AECP descriptor reads and gain sets, and ACMP
  connect/disconnect transactions (see docs/control-plane.md).
* :mod:`repro.mgmt.remote` — the speaker-side agent answering AECP/ACMP,
  which carries channel selection, volume and central override (§5.3):
  "movies shown on TV sets on airplane seats can be overridden by crew
  announcements".
* :mod:`repro.mgmt.supervisor` — the watchdog/health registry: ADP lease
  expiry (the one liveness signal) marks a node down and drives a
  guarded restart (the self-healing layer; see docs/faults.md).
* :mod:`repro.mgmt.snmp` — the SNMP MIB sketch of §5.3 as a read-only
  view: an agent on each speaker, a manager that can get and walk it.
* :mod:`repro.mgmt.volume` — automatic volume from ambient noise (§5.2),
  using the microphone model in :mod:`repro.audio.room`.
"""

from repro.mgmt.catalog import CatalogAnnouncer, CatalogListener, CATALOG_GROUP, CATALOG_PORT
from repro.mgmt.controller import EntityRecord, FleetController
from repro.mgmt.discovery import (
    DISCOVERY_GROUP,
    DISCOVERY_PORT,
    EntityAdvertiser,
    lease_deadline,
    lease_expired,
)
from repro.mgmt.remote import ManagementAgent
from repro.mgmt.remotecontrol import RemoteControl
from repro.mgmt.snmp import MibTree, SnmpAgent, SnmpManager, ES_MIB_BASE
from repro.mgmt.supervisor import NodeHealth, Supervisor, SupervisorStats
from repro.mgmt.volume import AutoVolumeController

__all__ = [
    "NodeHealth",
    "Supervisor",
    "SupervisorStats",
    "EntityAdvertiser",
    "EntityRecord",
    "FleetController",
    "DISCOVERY_GROUP",
    "DISCOVERY_PORT",
    "lease_deadline",
    "lease_expired",
    "CatalogAnnouncer",
    "CatalogListener",
    "CATALOG_GROUP",
    "CATALOG_PORT",
    "ManagementAgent",
    "RemoteControl",
    "MibTree",
    "SnmpAgent",
    "SnmpManager",
    "ES_MIB_BASE",
    "AutoVolumeController",
]
