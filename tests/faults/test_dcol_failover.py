"""DCol degradation path: a crashed waypoint is detected by the
transfer watchdog, its detour withdrawn, and the transfer completes on
the remaining (direct) subflow — reviving it if the connection stalled."""

import pytest

from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.manager import DetourManager
from repro.hpop.core import Household, Hpop, User
from repro.net.topology import build_detour_testbed
from repro.sim.engine import Simulator
from repro.util.units import mbps, mib


def build(num_waypoints=2, seed=15, **bed_kwargs):
    sim = Simulator(seed=seed)
    # A slow direct path keeps multi-second transfers in flight long
    # enough for mid-transfer faults to land.
    bed_kwargs.setdefault("direct_bps", mbps(20))
    bed_kwargs.setdefault("waypoint_leg_bps", mbps(40))
    bed_kwargs.setdefault("direct_loss", 0.005)
    bed = build_detour_testbed(sim, num_waypoints=num_waypoints,
                               **bed_kwargs)
    collective = DetourCollective()
    services, hpops = [], []
    for wp in bed.waypoints:
        hpop = Hpop(wp, bed.network,
                    Household(name=wp.name, users=[User("u", "p")]))
        service = hpop.install(WaypointService())
        hpop.start()
        collective.join(service)
        services.append(service)
        hpops.append(hpop)
    manager = DetourManager(bed.client, bed.network, collective)
    return sim, bed, collective, services, hpops, manager


class TestWaypointCrash:
    def test_crash_mid_transfer_completes_via_direct(self):
        sim, bed, _c, services, hpops, manager = build()
        done = []
        transfer = manager.start_transfer(
            bed.server, mib(10), on_complete=lambda t: done.append(sim.now))
        transfer.add_detour(services[0])
        # Kill the waypoint while the bulk of the transfer is in flight.
        sim.at(1.0, lambda: hpops[0].crash(), label="kill-waypoint")
        sim.run_until(300.0)
        assert done, "transfer never completed after waypoint crash"
        assert transfer.done
        assert manager.metrics.counters["waypoint_failovers"].value == 1
        # The dead detour was withdrawn, not left dangling.
        assert transfer.active_detours() == []

    def test_watchdog_emits_failover_span(self):
        sim, bed, _c, services, hpops, manager = build()
        tracer = sim.enable_tracing()
        transfer = manager.start_transfer(bed.server, mib(10))
        transfer.add_detour(services[0])
        sim.at(1.0, lambda: hpops[0].crash(), label="kill-waypoint")
        sim.run_until(300.0)
        assert transfer.done
        assert any(s.name == "dcol.waypoint_failover"
                   for s in tracer.spans())

    def test_healthy_waypoint_triggers_no_failover(self):
        sim, bed, _c, services, _hpops, manager = build()
        transfer = manager.start_transfer(bed.server, mib(5))
        transfer.add_detour(services[0])
        sim.run()
        assert transfer.done
        assert manager.metrics.counters["waypoint_failovers"].value == 0
        assert manager.metrics.counters["direct_failovers"].value == 0

    def test_watchdog_can_be_disabled(self):
        sim, bed, _c, services, hpops, manager = build()
        transfer = manager.start_transfer(bed.server, mib(10),
                                          watchdog_interval=None)
        transfer.add_detour(services[0])
        sim.at(1.0, lambda: hpops[0].crash(), label="kill-waypoint")
        sim.run_until(300.0)
        # Nobody watched, so nobody failed over.
        assert manager.metrics.counters["waypoint_failovers"].value == 0


class TestStallRevival:
    def test_stalled_connection_revived_on_direct_path(self):
        sim, bed, _c, services, hpops, manager = build(num_waypoints=1)
        done = []
        transfer = manager.start_transfer(
            bed.server, mib(10), on_complete=lambda t: done.append(sim.now))
        transfer.add_detour(services[0])
        native = bed.network.links["native-route"]
        wp_leg = bed.network.links["leg-client-wp0"]

        def total_outage():
            # Native route cut, waypoint dead AND its legs severed:
            # no network path remains, the connection truly stalls.
            bed.network.fail_link(native)
            bed.network.fail_link(wp_leg)
            hpops[0].crash()

        sim.at(1.0, total_outage, label="total-outage")
        sim.at(6.0, lambda: bed.network.restore_link(native),
               label="heal-direct")
        sim.run_until(300.0)
        assert done, "transfer never completed after stall"
        # The watchdog had to re-add a direct subflow once the native
        # route healed — the stalled connection could not do it itself.
        # (The dead detour subflow removed itself when its legs went
        # down, so this is the stall branch, not the withdraw branch.)
        assert manager.metrics.counters["direct_failovers"].value >= 1
        assert done[0] > 6.0
        assert transfer.active_detours() == []

    def _stall(self, sim, bed, hpops):
        """Cut every path at t=1; the direct route heals at t=6."""
        native = bed.network.links["native-route"]
        wp_leg = bed.network.links["leg-client-wp0"]

        def total_outage():
            bed.network.fail_link(native)
            bed.network.fail_link(wp_leg)
            hpops[0].crash()

        sim.at(1.0, total_outage, label="total-outage")
        sim.at(6.0, lambda: bed.network.restore_link(native),
               label="heal-direct")

    def test_partitioned_revive_is_counted(self):
        sim, bed, _c, services, hpops, manager = build(num_waypoints=1)
        transfer = manager.start_transfer(bed.server, mib(10))
        transfer.add_detour(services[0])
        self._stall(sim, bed, hpops)
        sim.run_until(300.0)
        assert transfer.done
        # Every watchdog tick during the outage found no route.
        assert manager.metrics.counters["direct_revive_failures"].value >= 1
        assert manager.metrics.counters["direct_failovers"].value >= 1

    def test_non_routing_revive_error_propagates(self):
        sim, bed, _c, services, hpops, manager = build(num_waypoints=1)
        transfer = manager.start_transfer(bed.server, mib(10))
        transfer.add_detour(services[0])
        self._stall(sim, bed, hpops)

        def broken_add_subflow(*_args, **_kwargs):
            raise ValueError("bug, not a partition")

        sim.at(2.0, lambda: setattr(transfer.connection, "add_subflow",
                                    broken_add_subflow), label="break")
        with pytest.raises(ValueError, match="bug, not a partition"):
            sim.run_until(300.0)
        # Partitioned ticks were counted and retried; the first revive
        # that found a route hit the bug and surfaced it.
        assert manager.metrics.counters["direct_revive_failures"].value >= 1
        assert sim.now >= 6.0
