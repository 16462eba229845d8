"""Watchdog / health registry: lease-driven down detection and restarts.

The paper's deployment is meant to run unattended in a building — the
speakers are netboot ramdisk appliances (§3.4) precisely so a power-cycled
node comes back with no operator.  This module supplies the management
half of that story.

Liveness has exactly one signal: the node's ADP lease
(:mod:`repro.mgmt.discovery`).  Each node's advertiser probes its
subject and refreshes the lease on the node's own CPU, so a killed
process, a frozen process and a halted CPU all let the lease lapse.
The :class:`repro.mgmt.controller.FleetController` scanning the
registry calls :meth:`Supervisor.notify_lease_expired`, and the
supervisor

* re-checks the node's probe (a lapse with a healthy node — say, only
  the advertiser died — is ignored);
* marks the node **down**;
* if the node was registered with a ``restart`` action, schedules it
  after ``restart_delay`` — modelling the watchdog-reset / power-cycle
  path — behind a ``restart_pending`` latch, and re-checks the probe
  once more before firing, so a node that recovered on its own is left
  alone.

The controller reports a lease again each further ``valid_time`` the
node stays silent, so a driven restart that did not take (the node
faulted again before its first advert) is detected and retried.  A node
whose lease comes back (the controller sees it return) is marked up
again.  The worst-case fault-to-restart latency is
``valid_time + check_interval + restart_delay``.

Lease expiries, downs and restarts are counted in
:class:`SupervisorStats` (restarts also per node) and marked on the
trace; restarts are folded into ``pipeline_report()`` so a run's
self-healing activity shows up next to its audio ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.metrics.telemetry import get_telemetry

#: health states
UP = "up"
DOWN = "down"
RESTARTING = "restarting"


@dataclass
class NodeHealth:
    """One supervised node's view in the registry."""

    name: str
    status: str = UP
    restarts: int = 0        # restarts this supervisor drove
    restart_pending: bool = False


@dataclass
class SupervisorStats:
    restarts: int = 0
    nodes_down: int = 0      # down transitions observed
    lease_expiries: int = 0  # discovery-lease expiries acted on

    #: populated by :meth:`Supervisor.snapshot`
    nodes: Dict[str, str] = field(default_factory=dict)


class Supervisor:
    """Health registry plus the guarded restart path.

    Parameters
    ----------
    restart_delay:
        seconds between marking a node down and firing its restart
        action (the watchdog-reset latency); ``None`` disables driven
        restarts globally.
    """

    def __init__(
        self,
        sim,
        restart_delay: Optional[float] = 0.5,
        name: str = "supervisor0",
        telemetry=None,
    ):
        self.sim = sim
        self.restart_delay = restart_delay
        self.name = name
        self.stats = SupervisorStats()
        self.nodes: Dict[str, NodeHealth] = {}
        self._probes: Dict[str, Callable[[], bool]] = {}
        self._restarts: Dict[str, Optional[Callable[[], None]]] = {}
        self.telemetry = telemetry if telemetry is not None else get_telemetry()

    # -- registration ---------------------------------------------------------

    def watch(
        self,
        name: str,
        probe: Callable[[], bool],
        restart: Optional[Callable[[], None]] = None,
    ) -> NodeHealth:
        """Supervise the node advertised as ``name``.

        ``probe`` is the node-local liveness check (the same one its
        advertiser runs before every lease refresh); ``restart`` is
        invoked from the management plane after the node is marked down.
        """
        if name in self.nodes:
            raise ValueError(f"node {name!r} already supervised")
        health = NodeHealth(name=name)
        self.nodes[name] = health
        self._probes[name] = probe
        self._restarts[name] = restart
        return health

    def status(self, name: str) -> str:
        return self.nodes[name].status

    def snapshot(self) -> SupervisorStats:
        """Stats with the per-node status map filled in."""
        self.stats.nodes = {n: h.status for n, h in self.nodes.items()}
        return self.stats

    # -- lease events ---------------------------------------------------------

    def notify_lease_expired(self, name: str) -> bool:
        """``name``'s discovery lease lapsed.

        Fed by :class:`repro.mgmt.controller.FleetController` when an
        entity's ADP lease ages out.  Returns ``True`` when a restart was
        scheduled (or the node was newly marked down with no restart
        action registered).
        """
        health = self.nodes.get(name)
        if health is None:
            return False          # not a supervised node (e.g. a remote)
        if health.restart_pending:
            return False          # already acting on it
        if health.status == DOWN:
            return False          # known down, no restart to drive
        if self._probes[name]():
            return False          # lease lapse was transient; node is fine
        self.stats.lease_expiries += 1
        health.status = DOWN
        self.stats.nodes_down += 1
        self.telemetry.tracer.instant(
            "supervisor.lease_expired", track=self.name, node=name,
        )
        restart = self._restarts[name]
        if restart is not None and self.restart_delay is not None:
            health.restart_pending = True
            health.status = RESTARTING
            self.sim.schedule(self.restart_delay, self._do_restart, name)
        return True

    def notify_returned(self, name: str) -> None:
        """``name`` advertised again after its lease lapsed: unless a
        restart is already on its way, the node is up."""
        health = self.nodes.get(name)
        if health is not None and not health.restart_pending:
            health.status = UP

    def _do_restart(self, name: str) -> None:
        health = self.nodes[name]
        health.restart_pending = False
        health.status = UP
        if self._probes[name]():
            return                # the node came back on its own
        self._restarts[name]()
        health.restarts += 1
        self.stats.restarts += 1
        self.telemetry.tracer.instant(
            "supervisor.restart", track=self.name, node=name,
        )
