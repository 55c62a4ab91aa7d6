"""The HPoP appliance: service platform, lifecycle, reachability.

Paper SIII: the HPoP is "an extensible and configurable platform that
can also run myriad mundane services for the user and the household",
always-on, reachable from outside the home. This module is that
platform: a service registry over an embedded HTTP server, a persistent
config store, a household/user model, and reachability bootstrap through
:mod:`repro.nat`.

Concrete services (data attic, NoCDN peer, DCol waypoint,
Internet@home) subclass :class:`HpopService` and are installed onto the
appliance; each contributes routes and periodic work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.http.server import HttpServer
from repro.nat.traversal import ReachabilityManager, ReachabilityReport
from repro.net.network import Network
from repro.net.node import Host
from repro.sim.engine import Process, Simulator

HPOP_PORT = 443  # the appliance speaks HTTPS to the world


@dataclass
class User:
    """A member of the household."""

    name: str
    password: str
    devices: List[Host] = field(default_factory=list)


@dataclass
class Household:
    """The people behind one HPoP."""

    name: str
    users: List[User] = field(default_factory=list)

    def user(self, name: str) -> User:
        for user in self.users:
            if user.name == name:
                return user
        raise KeyError(f"no user {name!r} in household {self.name}")


class ConfigStore:
    """Namespaced key-value configuration that survives service restarts."""

    def __init__(self) -> None:
        self._data: Dict[str, Dict[str, object]] = {}

    def namespace(self, name: str) -> Dict[str, object]:
        return self._data.setdefault(name, {})

    def get(self, namespace: str, key: str, default: object = None) -> object:
        return self._data.get(namespace, {}).get(key, default)

    def set(self, namespace: str, key: str, value: object) -> None:
        self.namespace(namespace)[key] = value

    def delete(self, namespace: str, key: str) -> None:
        self._data.get(namespace, {}).pop(key, None)


class HpopService:
    """Base class for services installable on an HPoP.

    Subclasses override :meth:`on_install` (register routes, allocate
    state) and optionally :meth:`on_start`/:meth:`on_stop` (periodic
    work). ``self.hpop`` is available from installation time.
    """

    name = "service"

    def __init__(self) -> None:
        self.hpop: Optional["Hpop"] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    @running.setter
    def running(self, value: bool) -> None:
        if value != self._running:
            self._running = value
            if self.hpop is not None:
                self.hpop.host.network.liveness_epoch += 1

    def on_install(self, hpop: "Hpop") -> None:
        """Called once when added to an appliance."""

    def on_start(self) -> None:
        """Called when the appliance (re)starts."""

    def on_stop(self) -> None:
        """Called when the appliance stops."""

    def on_crash(self) -> None:
        """Called on abrupt failure, before :meth:`on_stop`.

        Services drop *volatile* state here (caches, shards held as a
        favor for friends); durable state — the config store, the
        household's own data — survives a crash the way disk contents
        survive a power cut.
        """

    @property
    def sim(self) -> Simulator:
        assert self.hpop is not None, f"{self.name} not installed"
        return self.hpop.sim


class Hpop(Process):
    """One appliance instance bound to a host inside a home network."""

    def __init__(
        self,
        host: Host,
        network: Network,
        household: Household,
        reachability: Optional[ReachabilityManager] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(host.sim, name or f"hpop:{host.name}")
        self.host = host
        self.network = network
        self.household = household
        self.reachability = reachability
        self.config = ConfigStore()
        self.http = HttpServer(host, HPOP_PORT, name=f"{self.name}.http")
        self._services: Dict[str, HpopService] = {}
        self._running = False
        self.started_at: Optional[float] = None
        self.reachability_report: Optional[ReachabilityReport] = None
        self._register_portal()

    # -- portal -----------------------------------------------------------

    def _register_portal(self) -> None:
        from repro.http.messages import ok  # local import avoids cycle

        def status(_request):
            return ok(body_size=300, body={
                "name": self.name,
                "running": self._running,
                "services": sorted(self._services),
                "household": self.household.name,
                "uptime": (self.sim.now - self.started_at
                           if self.started_at is not None and self._running
                           else 0.0),
            })

        self.http.route("/portal/status", status)

    # -- service management ---------------------------------------------------

    def install(self, service: HpopService) -> HpopService:
        """Install a service; idempotent per service name."""
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already installed")
        service.hpop = self
        self._services[service.name] = service
        service.on_install(self)
        if self._running:
            service.running = True
            service.on_start()
        return service

    def service(self, name: str) -> HpopService:
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(f"no service {name!r} on {self.name}") from None

    def has_service(self, name: str) -> bool:
        return name in self._services

    def services(self) -> List[HpopService]:
        return list(self._services.values())

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self, on_reachable: Optional[Callable[[ReachabilityReport], None]] = None) -> None:
        """Boot the appliance: start services, establish reachability."""
        if self._running:
            return
        self._running = True
        self.started_at = self.sim.now
        self.host.power_on()
        for service in self._services.values():
            service.running = True
            service.on_start()
        if self.reachability is not None:
            def ready(report: ReachabilityReport) -> None:
                self.reachability_report = report
                if on_reachable is not None:
                    on_reachable(report)

            self.reachability.establish(self.host, HPOP_PORT, ready)
        elif on_reachable is not None:
            # No traversal manager configured: treat the appliance as
            # directly reachable (the simulator's default addressing).
            from repro.nat.traversal import ReachabilityMethod

            report = ReachabilityReport(
                host=self.host, method=ReachabilityMethod.PUBLIC,
                public_endpoint=(self.host.address, HPOP_PORT))
            self.reachability_report = report
            self.sim.call_soon(lambda: on_reachable(report),
                               label=f"{self.name}.reachable")

    def shutdown(self) -> None:
        """Stop services and power the host off (outage injection)."""
        if not self._running:
            return
        self._running = False
        for service in self._services.values():
            service.running = False
            service.on_stop()
        self.stop()  # cancel periodic work
        self.host.power_off()

    def crash(self, lose_state: bool = True) -> None:
        """Abrupt failure (power cut): like :meth:`shutdown`, but with
        ``lose_state=True`` each service's :meth:`HpopService.on_crash`
        hook runs first so volatile state is lost. The appliance comes
        back with :meth:`restart`."""
        if not self._running:
            return
        self._running = False
        for service in self._services.values():
            service.running = False
            if lose_state:
                service.on_crash()
            service.on_stop()
        self.stop()  # cancel periodic work
        self.host.power_off()

    def restart(self) -> None:
        """Power-cycle: config persists, services restart."""
        self.shutdown()
        self._stopped = False  # allow periodic work again
        self._running = True
        self.started_at = self.sim.now
        self.host.power_on()
        for service in self._services.values():
            service.running = True
            service.on_start()
