"""Hosts and the software that runs on them.

A :class:`Host` is a cluster node.  It owns named :class:`ProcGroup` s —
one per OS-level process (the PRESS server, the membership daemon, the FME
daemon, ...) plus an implicit ``os`` group for kernel-level activity (disk
servicing, ICMP echo).  Fault types from Table 1 map onto hosts as:

* ``node crash``  -> :meth:`Host.crash` (all groups killed, state lost),
  repaired by :meth:`Host.boot` which restarts every registered service;
* ``node freeze`` -> :meth:`Host.freeze` / :meth:`Host.unfreeze` (all
  groups parked; state survives — this is the fault that *violates* base
  PRESS's crash-only fault model and causes splintering);
* ``application crash / hang`` -> the per-service group's
  crash/freeze, driven by :mod:`repro.faults.injector`.

Services subclass :class:`NodeService`; the host restarts them after a
node reboot or an application-crash repair.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.kernel import Environment, SimulationError
from repro.sim.process import ProcessOwner
from repro.sim.store import Store


class ProcGroup(ProcessOwner):
    """A unit of failure for running software (an OS process)."""

    def __init__(self, host: "Host", name: str):
        super().__init__()
        self.host = host
        self.name = name
        #: Stores whose contents live in this process's address space;
        #: cleared on crash (state loss), untouched by freeze.
        self.volatile_stores: List[Store] = []

    def own_store(self, store: Store) -> Store:
        self.volatile_stores.append(store)
        return store

    def crash(self) -> None:
        super().crash()
        for store in self.volatile_stores:
            store.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_runnable() else ("frozen" if self.frozen else "dead")
        return f"<ProcGroup {self.host.name}:{self.name} {state}>"


class NodeService:
    """Base class for software installed on a host.

    Subclasses implement :meth:`start` (spawn processes, owned by
    ``self.group``) and may override :meth:`on_crash` to reset in-memory
    state and :meth:`on_hang`/:meth:`on_resume` to observe freezes.
    The host calls :meth:`start` again after crash repair.
    """

    __slots__ = ("host", "env", "name", "group", "fault_latched")

    #: name under which the service registers on its host
    service_name: str = "service"

    def __init__(self, host: "Host", name: Optional[str] = None):
        self.host = host
        self.env = host.env
        self.name = name or self.service_name
        self.group = host.add_group(self.name)
        #: set while an injected application-crash fault is unrepaired; the
        #: underlying cause persists, so restart attempts (e.g. by FME)
        #: fail until the injector repairs the fault.
        self.fault_latched = False
        host.register_service(self)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_crash(self) -> None:
        """Hook: in-memory state of the service was lost."""

    def on_hang(self) -> None:
        """Hook: the service stopped making progress (state retained)."""

    def on_resume(self) -> None:
        """Hook: a hung service resumed."""

    # -- fault entry points (used by the injector and by FME) ---------------
    def inject_crash(self) -> None:
        self.fault_latched = True
        self.group.crash()
        self.on_crash()

    def repair_crash(self) -> None:
        """Restart after an application crash (group revived, fresh start)."""
        self.fault_latched = False
        if not self.host.is_up:
            return  # the node is down; Host.boot will restart us later
        if not self.group.alive:
            self.group.revive()
        self.start()

    def inject_hang(self) -> None:
        if self.group.alive:
            self.group.freeze()
            self.on_hang()

    def repair_hang(self) -> None:
        if not self.host.is_up:
            return
        if self.group.alive and self.group.frozen:
            self.group.thaw(self.env)
            self.on_resume()
        # else: something (e.g. FME) converted the hang into a crash-restart
        # while it was active; nothing to thaw.

    def force_restart(self) -> None:
        """Kill and restart the service (FME's hang -> crash-restart map).

        If an application-crash fault is latched, the restart fails: the
        process comes up and immediately dies again, so the service stays
        down until the fault is repaired.
        """
        if not self.host.is_up:
            return
        self.group.crash()
        self.on_crash()
        self.group.revive()
        self.start()

    @property
    def running(self) -> bool:
        return self.host.is_up and self.group.is_runnable()

    @property
    def alive(self) -> bool:
        """Process exists (may be hung)."""
        return self.host.is_up and self.group.alive


class Host:
    """A cluster node: process groups, disks, lifecycle state."""

    __slots__ = ("env", "name", "node_id", "groups", "services",
                 "disks", "_up", "_frozen", "os", "on_boot_hooks")

    def __init__(self, env: Environment, name: str, node_id: int):
        self.env = env
        self.name = name
        self.node_id = node_id
        self.groups: Dict[str, ProcGroup] = {}
        self.services: Dict[str, NodeService] = {}
        self.disks: List = []  # populated by hardware.disk.Disk
        self._up = True
        self._frozen = False
        self.os = self.add_group("os")
        #: called (with this host) after every successful boot
        self.on_boot_hooks: List[Callable[["Host"], None]] = []

    # -- composition -------------------------------------------------------
    def add_group(self, name: str) -> ProcGroup:
        if name in self.groups:
            raise SimulationError(f"duplicate proc group {name!r} on {self.name}")
        group = ProcGroup(self, name)
        self.groups[name] = group
        return group

    def register_service(self, service: NodeService) -> None:
        if service.name in self.services:
            raise SimulationError(f"duplicate service {service.name!r} on {self.name}")
        self.services[service.name] = service

    def service(self, name: str) -> NodeService:
        return self.services[name]

    def start_all(self) -> None:
        """Start every registered service (initial cluster bring-up)."""
        for svc in self.services.values():
            svc.start()

    # -- state -------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        return self._up

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    @property
    def pingable(self) -> bool:
        """Answers ICMP echo: the OS is running (crashed/frozen nodes are not).

        Note a host whose *application* hung or crashed is still pingable —
        the exact blindness of Mon's ping-based monitoring in the paper.
        """
        return self._up and not self._frozen

    # -- fault transitions ---------------------------------------------------
    def crash(self) -> None:
        """Power-fail semantics: all processes die, all volatile state lost."""
        if not self._up:
            return
        self._up = False
        self._frozen = False
        for group in self.groups.values():
            group.crash()
        for disk in self.disks:
            disk.on_host_crash()
        for svc in self.services.values():
            svc.on_crash()

    def boot(self) -> None:
        """Synchronous reboot completion: revive groups, restart services.

        Callers model boot latency themselves (see
        :meth:`repro.faults.injector.FaultInjector`), typically as part of
        the component's MTTR.
        """
        if self._up:
            return
        self._up = True
        self._frozen = False
        for group in self.groups.values():
            group.revive()
        for disk in self.disks:
            disk.on_host_boot()
        for svc in self.services.values():
            svc.start()
        for hook in self.on_boot_hooks:
            hook(self)

    def freeze(self) -> None:
        if not self._up:
            raise SimulationError(f"cannot freeze crashed host {self.name}")
        if self._frozen:
            return
        self._frozen = True
        for group in self.groups.values():
            if group.alive:
                group.freeze()

    def unfreeze(self) -> None:
        if not self._frozen:
            return
        self._frozen = False
        for group in self.groups.values():
            if group.alive and group.frozen:
                group.thaw(self.env)
        for svc in self.services.values():
            if svc.group.alive:
                svc.on_resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "frozen" if self._frozen else ("up" if self._up else "down")
        return f"<Host {self.name} {state}>"
