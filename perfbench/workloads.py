"""The benchmark's worlds: build, drive, export and check each.

Every workload is split into the phases the benchmark times apart:

- ``setup`` — from an empty world to the first simulated event;
- ``run`` — everything that advances simulated time (for
  ``chaos_services`` its first part is the attic ``writes`` phase),
  returning the CPU seconds of each consecutive slice of it;
- ``finish`` — exports, the simulated facts that go into the digest,
  and the correctness checks.

Loads are open-loop in simulated time: every request is scheduled with
``sim.at`` before the run starts, whatever the completions. The only
inputs a world receives are its seeded :class:`Simulator` and the
request lists drawn here from the same seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.hpop.core import Household, Hpop, User
from repro.http.server import HttpServer
from repro.metrics.counters import Histogram
from repro.net.topology import build_city, hierarchical_path_provider
from repro.nocdn.directory import ContentDirectory
from repro.nocdn.loader import PageLoader
from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import NoCdnPeerService
from repro.nocdn.strategy import make_strategy
from repro.obs.timeseries import TimeSeriesDB
from repro.sim.engine import SimulationError, Simulator
from repro.util.units import mib
from repro.workloads.fleet import FleetSpec, FocusRequestLoad, build_fleet
from repro.workloads.web import CatalogSpec, generate_catalog
from tests.integration.test_chaos import ChaosWorld


@dataclass
class Outcome:
    """What one run of a world produced, in simulated terms."""

    attempted: int
    ok: int
    failed: int
    # Simulated seconds per completed request (a repro Histogram, whose
    # quantiles are exact).
    latency: Any
    delivered_bytes: float
    origin_bytes: float             # bytes of those the origin sent
    facts: Dict[str, Any]           # deterministic; digested
    digest: str
    problems: List[str] = field(default_factory=list)
    # Exact per-layer values read from public state after the run.
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def unfinished(self) -> int:
        return self.attempted - self.ok - self.failed


def digest_of(facts: Dict[str, Any], export_paths: Sequence[str]) -> str:
    sha = hashlib.sha256(json.dumps(facts, sort_keys=True).encode())
    for path in export_paths:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def zipf_urls(urls: Sequence[str], alpha: float, count: int,
              seed: int) -> List[str]:
    """``count`` URLs drawn with Zipf(alpha) popularity by rank."""
    rng = random.Random(f"perfbench.zipf.{seed}")
    weights = [1.0 / rank ** alpha for rank in range(1, len(urls) + 1)]
    return rng.choices(list(urls), weights=weights, k=count)


def check_page_loads(loads: Sequence[tuple], results: Sequence[Any],
                     problems: List[str]) -> None:
    """Every completed load matches the one scheduled at its start time.

    ``loads`` is ``[(start time, url, expected bytes)]``. A load is
    identified by its start time, which the open loop fixes.
    """
    by_start = {start: (url, size) for start, url, size in loads}
    seen = set()
    for r in results:
        expected = by_start.get(r.started_at)
        if expected is None or r.started_at in seen:
            problems.append(f"page load started at {r.started_at} was "
                            f"never scheduled or finished twice")
            continue
        seen.add(r.started_at)
        url, size = expected
        if r.url != url:
            problems.append(f"load at {r.started_at}: url {r.url} != {url}")
        if r.total_bytes != size:
            problems.append(f"load of {url} at {r.started_at}: delivered "
                            f"{r.total_bytes} bytes, page has {size}")
        if r.completed_at < r.started_at:
            problems.append(f"load of {url} finished before it started")
        if r.corrupted:
            problems.append(f"load of {url} accepted corrupted objects")


def lap(fn: Any, *args: Any) -> float:
    """CPU seconds one call takes."""
    cpu0 = time.process_time()
    fn(*args)
    return time.process_time() - cpu0


def laps_until(sim: Simulator, end: float, step: float) -> List[float]:
    """Run ``sim`` to ``end`` in ``step``-long slices of simulated time;
    returns the CPU seconds of each slice."""
    laps = []
    t = sim.now
    while t < end:
        t = min(t + step, end)
        laps.append(lap(sim.run_until, t))
    return laps


def laps_of_run(sim: Simulator, events: int) -> List[float]:
    """Run ``sim.run()`` to quiescence in slices of ``events`` events;
    returns the CPU seconds of each slice.

    ``run(max_events=n)`` raises :class:`SimulationError` once it has
    fired ``n`` events without reaching quiescence; the loop resumes
    from there. The engine stays on its batched ``run()`` path, and a
    seeded world cuts its slices at the same events every time.
    """
    laps = []
    while True:
        fired0 = sim.events_fired
        cpu0 = time.process_time()
        try:
            sim.run(max_events=events)
        except SimulationError:
            if sim.events_fired - fired0 != events:
                raise
            laps.append(time.process_time() - cpu0)
            continue
        laps.append(time.process_time() - cpu0)
        return laps


def histogram_of(durations: Sequence[float]) -> Any:
    histogram = Histogram("latency")
    for value in durations:
        histogram.observe(value)
    return histogram


def page_bytes(page: Any) -> int:
    return sum(obj.size for obj in page.all_objects())


def load_facts(results: Sequence[Any]) -> List[list]:
    return sorted([r.started_at, r.url, r.completed_at, r.bytes_from_peers,
                   r.bytes_from_origin, len(r.peer_failures)]
                  for r in results)


# -- nocdn_city_10k and nocdn_city_2k ------------------------------------


class NocdnCity:
    """A 10,000-home city whose 9,900 HPoPs are sharded NoCDN peers.

    Built the way ``run_nocdn_fleet_cell`` builds its 10k cell: 100
    neighbourhoods of 100 homes, tree-walk routing, home 0 of each
    neighbourhood hosting a client device and the rest signing up as
    peers, with the content directory and the ``sharded`` strategy.
    """

    name = "nocdn_city_10k"
    neighborhoods = 100
    homes = 100
    pages = 40
    zipf = 0.9
    spacing = 0.5
    loads = 100
    slice_events = 250

    def setup(self, seed: int, rec: Any) -> Dict[str, Any]:
        sim = Simulator(seed=seed)
        with rec.span("setup.build_city"):
            city = build_city(sim, num_neighborhoods=self.neighborhoods,
                              homes_per_neighborhood=self.homes,
                              devices_per_home=1,
                              server_sites={"origin": 1, "edge": 1})
            city.network.path_provider = hierarchical_path_provider(city)
        # The site is fixed; the seed drives the requests and the world.
        catalog = generate_catalog(CatalogSpec(num_pages=self.pages),
                                   random.Random("perfbench.catalog"))
        directory = ContentDirectory(sim, gossip_interval=0.0)
        provider = ContentProvider(
            "news.example", city.server_sites["origin"].servers[0],
            city.network, catalog, strategy=make_strategy("sharded"),
            directory=directory, max_fallbacks=3)
        peers = []
        with rec.span("setup.signup"):
            for nbhd in city.neighborhoods:
                for home in nbhd.homes[1:]:
                    service = NoCdnPeerService(cache_bytes=mib(64))
                    tag = f"n{nbhd.index}h{home.index}"
                    hpop = Hpop(home.hpop_host, city.network,
                                Household(name=tag,
                                          users=[User(f"u-{tag}", "pw")]))
                    hpop.install(service)
                    hpop.start()
                    service.sign_up(provider)
                    peers.append(service)
        loaders = [PageLoader(nbhd.homes[0].devices[0], city.network)
                   for nbhd in city.neighborhoods]
        urls = zipf_urls([p.url for p in catalog.pages()], self.zipf,
                         self.loads, seed)
        results: List[Any] = []
        errors: List[Any] = []
        loads = []
        for i, url in enumerate(urls):
            start = i * self.spacing
            loads.append((start, url, page_bytes(catalog.page(url))))
            sim.at(start, (lambda ld=loaders[i % len(loaders)], u=url:
                           ld.load(provider, u, results.append,
                                   errors.append)),
                   label=f"fleet-load-{i}")
        tsdb = TimeSeriesDB(sim, interval=5.0)
        tsdb.add_callback("loads.completed", lambda: len(results),
                          kind="counter")
        uplink = city.neighborhoods[0].uplink
        tsdb.add_callback(
            "uplink0.bytes",
            lambda: (uplink.forward.stats.bytes_carried
                     + uplink.reverse.stats.bytes_carried),
            kind="counter")
        tsdb.start()
        return {"sim": sim, "provider": provider, "peers": peers,
                "loads": loads, "results": results, "errors": errors,
                "tsdb": tsdb}

    def run(self, world: Dict[str, Any], rec: Any) -> List[float]:
        rec.phase = "run"
        return laps_of_run(world["sim"], self.slice_events)

    def finish(self, world: Dict[str, Any], out_dir: str,
               rec: Any) -> Outcome:
        sim, peers = world["sim"], world["peers"]
        results, errors = world["results"], world["errors"]
        tsdb_path = os.path.join(out_dir, "tsdb.jsonl")
        with rec.span("obs.export"):
            world["tsdb"].export_jsonl(tsdb_path)

        problems: List[str] = []
        check_page_loads(world["loads"], results, problems)
        total = sum(r.total_bytes for r in results)
        fill = sum(p.origin_fill_bytes for p in peers)
        served = sum(p.local_hit_bytes + p.neighbor_hit_bytes for p in peers)
        origin = fill + sum(r.bytes_from_origin for r in results)
        if not 0 < origin <= total:
            problems.append(f"origin sent {origin} of {total} bytes")
        facts = {
            "loads": load_facts(results),
            "errors": sorted(str(e) for e in errors),
            "origin_fill_bytes": fill,
            "peer_served_bytes": served,
            "wrappers_issued": world["provider"].wrappers_issued,
            "neighbor_hits": sum(p.neighbor_hits for p in peers),
            "events": sim.events_fired,
            "end": sim.now,
        }
        return Outcome(
            attempted=len(world["loads"]), ok=len(results),
            failed=len(errors),
            latency=histogram_of([r.duration for r in results]),
            delivered_bytes=total, origin_bytes=origin, facts=facts,
            digest=digest_of(facts, [tsdb_path]), problems=problems,
            layer={
                "nocdn.byte_hit_ratio": served / max(1.0, served + fill),
                "nocdn.peer_failures": sum(len(r.peer_failures)
                                           for r in results),
            })


class NocdnCity2k(NocdnCity):
    """The same city at 2,000 homes (20 neighbourhoods, 1,980 peers).

    Twice the loads at half the spacing cover the same 50 simulated
    seconds. A repetition costs about a fifth of the 10k city's, so a
    50 s run fits about fifteen of them where the 10k city fits four,
    and its run-phase CPU holds still on a noisy host.
    """

    name = "nocdn_city_2k"
    neighborhoods = 20
    loads = 200
    spacing = 0.25


# -- fleet_obs_100k --------------------------------------------------------


class FleetObs:
    """A 100,000-home hollow fleet under the full fleet telemetry stack.

    Four focus homes drive an HTTP load (every 25th request stalls at
    the origin, every 10th targets a focus HPoP); every idle home keeps
    a metric registry folded by cohort rollups; a 1 s TSDB scrapes it
    all and the lite tracer tail-samples 2% of the request traces.
    There is no NoCDN here: ``origin_offload`` is the share of the focus
    load the focus HPoPs served, which the load's design fixes.
    """

    name = "fleet_obs_100k"
    num_homes = 100_000
    focus_homes = 4
    tick = 0.25
    rollup_k = 4
    rollup_every = 8
    requests = 1000
    spacing = 0.3
    slow_every = 25
    slow_delay = 2.0
    slow_threshold = 1.5
    peer_every = 10
    timeout = 4.0
    sampling = 0.02
    # The last request starts at requests * spacing; the slowest one
    # needs slow_delay more, so every request ends before this.
    sim_seconds = 305.0
    slice_s = 5.0

    def setup(self, seed: int, rec: Any) -> Dict[str, Any]:
        sim = Simulator(seed=seed)
        with rec.span("setup.build_fleet"):
            fleet = build_fleet(sim, FleetSpec(
                num_homes=self.num_homes, focus_homes=self.focus_homes,
                tick=self.tick, per_home_metrics=True, rollup_k=self.rollup_k,
                rollup_every=self.rollup_every))
        tracer = sim.enable_tracing(capacity=262_144, trace_events=False,
                                    profile_events=False)
        sampler = tracer.enable_tail_sampling(
            rate=self.sampling, slow_threshold=self.slow_threshold)
        load = FocusRequestLoad(
            fleet, requests=self.requests, spacing=self.spacing,
            timeout=self.timeout, slow_every=self.slow_every,
            slow_delay=self.slow_delay, peer_every=self.peer_every)
        tsdb = TimeSeriesDB(sim, interval=1.0)
        tsdb.add_registry(fleet.registry, source="fleet")
        tsdb.add_registry(load.metrics, source="focus")
        fleet.attach_rollups(tsdb)
        uplink = fleet.aggregates[0].uplink
        tsdb.add_callback("uplink0.up_bytes",
                          lambda: uplink.forward.stats.bytes_carried,
                          kind="counter")
        fleet.start()
        load.start()
        tsdb.start()
        return {"sim": sim, "fleet": fleet, "load": load, "tsdb": tsdb,
                "tracer": tracer, "sampler": sampler}

    def run(self, world: Dict[str, Any], rec: Any) -> List[float]:
        rec.phase = "run"
        return laps_until(world["sim"], self.sim_seconds, self.slice_s)

    def finish(self, world: Dict[str, Any], out_dir: str,
               rec: Any) -> Outcome:
        sim, load, tsdb = world["sim"], world["load"], world["tsdb"]
        fleet, sampler = world["fleet"], world["sampler"]
        tsdb_path = os.path.join(out_dir, "tsdb.jsonl")
        trace_path = os.path.join(out_dir, "trace.jsonl")
        with rec.span("obs.export"):
            tsdb.export_jsonl(tsdb_path)
            world["tracer"].export_jsonl(trace_path)

        problems: List[str] = []
        if any(status != 200 for _i, status in load.results):
            problems.append("a focus request got a non-200 response")
        indices = ([i for i, _s in load.results]
                   + [i for i, _e in load.errors])
        if len(set(indices)) != len(indices):
            problems.append("a focus request finished twice")
        expected_scrapes = int(self.sim_seconds / tsdb.interval) + 1
        if tsdb.scrapes != expected_scrapes:
            problems.append(f"{tsdb.scrapes} scrapes, cadence gives "
                            f"{expected_scrapes}")
        if any(series.resolution != 1 for series in tsdb.series.values()):
            problems.append("a series was downsampled, so stored points "
                            "no longer count scrape rows")
        rows = rows_per_scrape(tsdb)
        # Each cohort adds its member-metric aggregates, two governor
        # gauges and the member rows of at most k loudest homes; the
        # rest are the fleet and focus registries. Nothing scales with
        # homes per cohort.
        per_member = 3
        cohorts = len(fleet.pools)
        bound = (max(rows["base"])
                 + cohorts * (per_member * (self.rollup_k + 1) + 2))
        if max(rows["all"]) > bound:
            problems.append(f"{max(rows['all'])} rows in one scrape, bound "
                            f"{bound} (focus + cohorts + k)")
        stats = sampler.stats_record()
        # FocusRequestLoad sends every slow_every-th request to /slow
        # unless the same index is a peer_every-th, which goes to a peer.
        slow = sum(1 for i in range(self.requests)
                   if i % self.slow_every == self.slow_every - 1
                   and i % self.peer_every != self.peer_every - 1)
        if stats["kept_by_reason"].get("slow", 0) < slow:
            problems.append(f"{slow} slow traces, sampler kept "
                            f"{stats['kept_by_reason'].get('slow', 0)}")
        if not 0 < stats["traces_kept"] <= stats["traces_seen"]:
            problems.append("sampler kept no traces or more than it saw")

        histogram = load.metrics.histograms["request_seconds"]
        origin = float(load.origin.bytes_served)
        peers = 0.0
        for host in load.peer_hosts:
            server = host.stream_listener(80)
            if isinstance(server, HttpServer):
                peers += server.bytes_served
        facts = {
            "results": sorted(load.results),
            "errors": sorted(load.errors),
            "sampler": stats,
            "scrape_rows": rows["all"],
            "events": sim.events_fired,
        }
        return Outcome(
            attempted=self.requests, ok=len(load.results),
            failed=len(load.errors), latency=histogram,
            delivered_bytes=origin + peers, origin_bytes=origin,
            facts=facts, digest=digest_of(facts, [tsdb_path, trace_path]),
            problems=problems,
            layer={
                "obs.sampler.keep_ratio": (stats["traces_kept"]
                                           / max(1, stats["traces_seen"])),
                "obs.spans_dropped": world["tracer"].spans_dropped,
            })


MEMBER = re.compile(r"n\d+h\d+/")


def rows_per_scrape(tsdb: Any) -> Dict[str, List[int]]:
    """Rows each scrape appended, read back from the stored series.

    Valid while no series has been downsampled (every stored point is
    then one scrape's row). ``base`` counts rows that are not cohort
    rollups or rolled-up member series.
    """
    times: Dict[float, int] = {}
    base: Dict[float, int] = {}
    for name, series in tsdb.series.items():
        rolled = name.startswith("cohort:") or MEMBER.match(name) is not None
        for t, _v in series.points:
            times[t] = times.get(t, 0) + 1
            if not rolled:
                base[t] = base.get(t, 0) + 1
    order = sorted(times)
    return {"all": [times[t] for t in order],
            "base": [base.get(t, 0) for t in order]}


# -- chaos_services --------------------------------------------------------


class ChaosServices:
    """The ``chaos`` study world: attic writes, then NoCDN reads in churn.

    Driven through the integration suite's ``ChaosWorld`` exactly as
    ``run_chaos_cell`` drives it, with the controller, the ``sharded``
    strategy, tail sampling and exemplars switched on. Eight HPoPs are
    both NoCDN peers and attic backup friends; 20% of them churn and one
    access link flaps while the page loads run.
    """

    name = "chaos_services"
    num_peers = 8
    churn = 0.2
    loads = 400
    spacing = 0.05
    horizon = 150.0
    slice_s = 5.0
    sampling = 0.05

    def setup(self, seed: int, rec: Any) -> Dict[str, Any]:
        world = ChaosWorld(seed, num_peers=self.num_peers, strategy="sharded")
        world.sim.enable_tracing(capacity=262_144)
        world.enable_sampling(rate=self.sampling)
        world.sim.enable_profiling()
        world.enable_telemetry(exemplars=True)
        world.enable_controller()
        return {"sim": world.sim, "world": world}

    def run(self, world: Dict[str, Any], rec: Any) -> List[float]:
        chaos = world["world"]
        rec.phase = "writes"
        laps = [lap(chaos.seed_attic)]
        rec.phase = "run"
        cpu0 = time.process_time()
        world["plan"] = chaos.apply_churn(self.churn)
        t0 = chaos.sim.now
        world["results"], world["errors"] = chaos.schedule_loads(
            num_loads=self.loads, spacing=self.spacing)
        world["starts"] = [t0 + 1.0 + self.spacing * i
                           for i in range(self.loads)]
        laps.append(time.process_time() - cpu0)
        laps += laps_until(chaos.sim, t0 + self.horizon, self.slice_s)
        laps.append(lap(chaos.slo_monitor.finish))
        return laps

    def finish(self, world: Dict[str, Any], out_dir: str,
               rec: Any) -> Outcome:
        chaos = world["world"]
        results, errors = world["results"], world["errors"]
        paths = [os.path.join(out_dir, name) for name in
                 ("tsdb.jsonl", "slo.jsonl", "faults.jsonl", "trace.jsonl",
                  "control.jsonl")]
        with rec.span("obs.export"):
            chaos.tsdb.export_jsonl(paths[0])
            chaos.slo_monitor.export_jsonl(paths[1])
            chaos.injector.export_jsonl(paths[2])
            chaos.sim.tracer.export_jsonl(paths[3])
            chaos.controller.export_jsonl(paths[4])

        problems: List[str] = []
        loads = [(start, f"/page{i % 2}",
                  page_bytes(chaos.catalog.page(f"/page{i % 2}")))
                 for i, start in enumerate(world["starts"])]
        check_page_loads(loads, results, problems)
        if not chaos.attic_fully_redundant():
            problems.append("attic not back at full redundancy")
        owner = chaos.owner.metrics.counters
        if owner["auto_repair_gave_up"].value:
            problems.append("attic auto-repair gave up")
        faults = chaos.injector.metrics.counters
        crashes = len(world["plan"].node_crashes())
        if (faults["node_crashes"].value != crashes
                or faults["node_restarts"].value != crashes):
            problems.append(f"{crashes} planned crashes, injector counted "
                            f"{faults['node_crashes'].value} crashes and "
                            f"{faults['node_restarts'].value} restarts")
        if faults["link_flaps"].value != 1:
            problems.append("the planned link flap did not fire once")

        peers = [hpop.service("nocdn-peer") for hpop in chaos.hpops]
        total = sum(r.total_bytes for r in results)
        fill = sum(p.origin_fill_bytes for p in peers)
        served = sum(p.local_hit_bytes + p.neighbor_hit_bytes for p in peers)
        origin = fill + sum(r.bytes_from_origin for r in results)
        ctl = chaos.controller.metrics.counters
        facts = {
            "loads": load_facts(results),
            "errors": sorted(str(e) for e in errors),
            "origin_fill_bytes": fill,
            "planned_faults": len(world["plan"]),
            "sampler": chaos.sampler.stats_record(),
            "events": chaos.sim.events_fired,
            "end": chaos.sim.now,
        }
        return Outcome(
            attempted=self.loads, ok=len(results), failed=len(errors),
            latency=histogram_of([r.duration for r in results]),
            delivered_bytes=total,
            origin_bytes=origin, facts=facts, digest=digest_of(facts, paths),
            problems=problems,
            layer={
                "nocdn.byte_hit_ratio": served / max(1.0, served + fill),
                "nocdn.peer_failures": sum(len(r.peer_failures)
                                           for r in results),
                "attic.shards_repaired": sum(
                    b.metrics.counters["shards_repaired"].value
                    for b in chaos.backups),
                "control.actions_executed": ctl["actions_executed"].value,
                "faults.injected": faults["faults_injected"].value,
                "obs.sampler.keep_ratio": (
                    chaos.sampler.traces_kept
                    / max(1, chaos.sampler.traces_seen)),
                "obs.spans_dropped": chaos.sim.tracer.spans_dropped,
            })


WORKLOADS = {w.name: w for w in (NocdnCity(), NocdnCity2k(), FleetObs(),
                                  ChaosServices())}
