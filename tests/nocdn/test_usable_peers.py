"""The origin's cached usable-peer snapshot against its reference scans.

``ContentProvider.alive_peers`` hands out one cached snapshot that is
rebuilt only when liveness, trust, expulsion or quarantine changes, and
``build_wrapper`` picks fallbacks by walking the snapshot's trust order.
Both must equal the plain per-call scans they replaced, after any mix
of the operations that can change them; and a warm wrapper build must
do no per-peer work at all, at any fleet size.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hpop.core import Household, Hpop, User
from repro.nocdn import strategy as strategy_module
from repro.nocdn.origin import PeerInfo
from repro.nocdn.peer import NoCdnPeerService
from tests.nocdn.harness import NoCdnWorld, make_catalog

NUM_PEERS = 5
HOMES = 9  # peers in homes 0..4, the client in home 5, late sign-ups after


def reference_usable(provider):
    now = provider.sim.now
    return [p for p in provider.peers.values()
            if p.alive and now >= p.quarantined_until]


def reference_fallbacks(usable, wrapper, max_fallbacks):
    used = (set(wrapper.assignments.values())
            | {c.peer_id for c in wrapper.chunks})
    ranked = sorted((p for p in usable if p.peer_id not in used),
                    key=lambda p: (-p.trust, p.peer_id))
    return [p.peer_id for p in ranked][:max_fallbacks]


def late_sign_up(world, home_index):
    home = world.city.neighborhoods[0].homes[home_index]
    hpop = Hpop(home.hpop_host, world.city.network,
                Household(name=f"late{home_index}",
                          users=[User(f"late{home_index}", "pw")]))
    service = NoCdnPeerService()
    hpop.install(service)
    hpop.start()
    # The origin keeps serving between the appliance's boot and its
    # sign-up, so the snapshot is already warm when the peer joins.
    world.provider.alive_peers()
    service.sign_up(world.provider)
    world.hpops.append(hpop)
    world.peers.append(service)


def apply(world, op):
    kind, index, value = op
    hpop = world.hpops[index % len(world.hpops)]
    info = world.provider.peers[hpop.host.name]
    if kind == "power_off":
        hpop.host.power_off()
    elif kind == "power_on":
        hpop.host.power_on()
    elif kind in ("crash", "restart", "shutdown", "start"):
        getattr(hpop, kind)()
    elif kind == "service_stop":
        info.service.running = False  # the service dies, the host stays up
    elif kind == "service_start":
        info.service.running = True
    elif kind == "quarantine":
        world.provider.quarantine_peer(info.peer_id, value)
    elif kind == "wait":
        world.sim.run_until(world.sim.now + value)
    elif kind == "expel":
        world.provider.expel_peer(info.peer_id)
    elif kind == "penalize":
        world.provider._penalize(info.peer_id)
    elif kind == "trust":
        info.trust = value
    elif kind == "sign_up":
        used = len(world.hpops) + 1  # + the client's home
        if used < HOMES:
            late_sign_up(world, used)


durations = st.sampled_from([0.5, 1.0, 2.5, 4.0])
ops = st.one_of(
    st.tuples(st.sampled_from(["power_off", "power_on", "crash", "restart",
                               "shutdown", "start", "service_stop",
                               "service_start", "expel", "penalize",
                               "sign_up"]),
              st.integers(0, 8), st.none()),
    st.tuples(st.just("quarantine"), st.integers(0, 8), durations),
    st.tuples(st.just("wait"), st.just(0), durations),
    st.tuples(st.just("trust"), st.integers(0, 8),
              st.sampled_from([0.0, 0.04, 0.5, 1.0, 2.0])),
)


class TestSnapshotOracle:
    @given(op_list=st.lists(ops, min_size=1, max_size=14),
           strategy=st.sampled_from([None, "sharded", "replicate-hot"]),
           max_fallbacks=st.sampled_from([None, 0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_snapshot_and_fallbacks_match_reference(self, op_list, strategy,
                                                    max_fallbacks):
        world = NoCdnWorld(num_peers=NUM_PEERS, homes=HOMES, seed=5,
                           strategy=strategy, max_fallbacks=max_fallbacks,
                           # Two objects a page leave most peers
                           # unassigned, so fallback order shows.
                           catalog=make_catalog(num_pages=2,
                                                objects_per_page=1))
        provider = world.provider
        page = world.catalog.page("/page0")
        for op in op_list:
            apply(world, op)
            expected = reference_usable(provider)
            snapshot = provider.alive_peers()
            assert snapshot == expected
            assert snapshot.ids == {p.peer_id for p in expected}
            assert snapshot.ordered == sorted(p.peer_id for p in expected)
            wrapper = provider.build_wrapper(page)
            if not expected:
                assert wrapper is None
                continue
            assert wrapper.fallbacks == reference_fallbacks(
                expected, wrapper, max_fallbacks)


class TestExpulsion:
    def test_penalty_expulsion_leaves_ring_and_directory(self):
        world = NoCdnWorld(num_peers=NUM_PEERS, homes=HOMES, seed=31,
                           strategy="sharded",
                           catalog=make_catalog(num_pages=3))
        for url in ("/page0", "/page1", "/page2"):
            world.load_page(url)
        provider = world.provider
        holders = {h for hs in provider.directory.entries().values()
                   for h in hs}
        assert holders, "warm-up published nothing"
        victim = min(holders)
        for _ in range(6):
            provider._penalize(victim)
        assert provider.peers[victim].expelled
        assert victim not in provider.strategy.ring
        assert all(victim not in hs
                   for hs in provider.directory.entries().values())
        assert victim not in provider.alive_peers().ids
        # Honest peers no longer forward misses to the expelled peer.
        for url in ("/page0", "/page1", "/page2"):
            result = world.load_page(url)
            assert not result.corrupted
        assert all(victim not in hs
                   for hs in provider.directory.entries().values())


class TestWrapperFlatness:
    """Exact work counts of a warm wrapper build, at two fleet sizes."""

    def _warm_counts(self, monkeypatch, num_peers):
        world = NoCdnWorld(num_peers=num_peers, homes=num_peers + 1,
                           seed=7, strategy="sharded", max_fallbacks=3)
        provider = world.provider
        page = world.catalog.page("/page0")
        provider.build_wrapper(page)  # builds the snapshot and the ring
        counts = {"alive": 0, "hashes": 0}
        alive = PeerInfo.alive.fget
        hash_point = strategy_module._hash_point

        def counting_alive(info):
            counts["alive"] += 1
            return alive(info)

        def counting_hash(token):
            counts["hashes"] += 1
            return hash_point(token)

        monkeypatch.setattr(PeerInfo, "alive", property(counting_alive))
        monkeypatch.setattr(strategy_module, "_hash_point", counting_hash)
        assert provider.build_wrapper(page) is not None
        monkeypatch.undo()
        return counts

    def test_warm_build_wrapper_is_independent_of_fleet_size(
            self, monkeypatch):
        small = self._warm_counts(monkeypatch, 40)
        large = self._warm_counts(monkeypatch, 400)
        assert small == large
        assert small["alive"] == 0
        # One ring lookup per page object, none per peer.
        assert small["hashes"] == len(
            list(make_catalog().page("/page0").all_objects()))


class TestFallbackLimit:
    def test_negative_max_fallbacks_is_rejected(self):
        with pytest.raises(ValueError, match="max_fallbacks"):
            NoCdnWorld(num_peers=1, max_fallbacks=-1)
