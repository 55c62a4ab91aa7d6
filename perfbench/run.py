#!/usr/bin/env python3
"""Run the repository benchmark: host cost and simulated outcome of worlds.

Usage, from the repository root::

    python3 perfbench/run.py --workload chaos_services --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One invocation runs one workload in this process (``all`` runs each in
its own child process, so peak RSS stays per workload). It repeats the
same seeded world while another repetition fits in ``--seconds`` of
wall time, at least a few times. Set-up CPU is the median over
set-ups; run-phase CPU sums, slice by slice, each slice's fastest
repetition.

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped. ``--trace 1`` alternates untraced repetitions with traced ones
(layer methods wrapped from outside, see ``spans.py``) and prints the
per-layer metrics plus the tracing overhead.

Every repetition checks the simulation's outputs; all repetitions must
produce the same digest of simulated facts and exports, and the same
exact work counts. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_REPS = 3            # untraced repetitions per invocation, at least
MIN_TRACED = 2          # traced repetitions per traced invocation
SETUP_SAMPLES = 25      # set-up timings per untraced invocation, aimed at
BUDGET_S = 150.0        # no repetition may end past this much wall time
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10        # samples a tail percentile must have beyond it
WORKLOAD_NAMES = ("nocdn_city_10k", "nocdn_city_2k", "fleet_obs_100k",
                  "chaos_services")

END_TO_END = (
    ("setup_s", "s"),
    ("host_ms_per_request", "ms"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("load_p50_sim_ms", "sim_ms"),
    ("load_tail_sim_ms", "sim_ms"),
    ("ok_ratio", "ratio"),
    ("origin_offload", "ratio"),
)

# (metric, unit, source). Sources: "calls:<span>", "self:<span>" (self
# time in the writes+run phases), "wall:<span>" (whole duration),
# "layer:<key>" (exact value a workload read from public state).
PER_LAYER = (
    ("sim.events", "count", "events"),
    ("sim.events_per_host_s", "1/s", "events_per_host_s"),
    ("sim.run_self_s", "s", "self:sim.run"),
    ("net.path_between.calls", "count", "calls:net.path_between"),
    ("net.path_between.self_s", "s", "self:net.path_between"),
    ("transport.establish.calls", "count", "calls:transport.establish"),
    ("transport.establish.self_s", "s", "self:transport.establish"),
    ("transport.transfer.calls", "count", "calls:transport.transfer"),
    ("transport.transfer.self_s", "s", "self:transport.transfer"),
    ("http.request.calls", "count", "calls:http.request"),
    ("http.request.self_s", "s", "self:http.request"),
    ("http.errors", "count", "http_errors"),
    ("nocdn.build_wrapper.calls", "count", "calls:nocdn.build_wrapper"),
    ("nocdn.build_wrapper.self_s", "s", "self:nocdn.build_wrapper"),
    ("nocdn.alive_peers.calls", "count", "calls:nocdn.alive_peers"),
    ("nocdn.alive_peers.self_s", "s", "self:nocdn.alive_peers"),
    ("nocdn.assign.calls", "count", "calls:nocdn.assign"),
    ("nocdn.assign.self_s", "s", "self:nocdn.assign"),
    ("nocdn.peers_scanned_per_wrapper", "count", "peers_scanned"),
    ("nocdn.byte_hit_ratio", "ratio", "layer:nocdn.byte_hit_ratio"),
    ("nocdn.peer_failures", "count", "layer:nocdn.peer_failures"),
    ("attic.backup_all.self_s", "s", "self:attic.backup_all"),
    ("util.erasure.encode.calls", "count", "calls:util.erasure.encode"),
    ("util.erasure.encode.self_s", "s", "self:util.erasure.encode"),
    ("attic.shards_repaired", "count", "layer:attic.shards_repaired"),
    ("obs.scrape.calls", "count", "calls:obs.scrape"),
    ("obs.scrape.self_s", "s", "self:obs.scrape"),
    ("obs.scrape_rows", "count", "scrape_rows"),
    ("obs.sampler.span_finished.calls", "count",
     "calls:obs.sampler.span_finished"),
    ("obs.sampler.span_finished.self_s", "s",
     "self:obs.sampler.span_finished"),
    ("obs.sampler.keep_ratio", "ratio", "layer:obs.sampler.keep_ratio"),
    ("obs.slo.evaluate.self_s", "s", "self:obs.slo.evaluate"),
    ("obs.spans_dropped", "count", "layer:obs.spans_dropped"),
    ("obs.export_s", "s", "wall:obs.export"),
    ("metrics.snapshot_series.calls", "count",
     "calls:metrics.snapshot_series"),
    ("metrics.snapshot_series.self_s", "s", "self:metrics.snapshot_series"),
    ("setup.build_city_s", "s", "wall:setup.build_city"),
    ("setup.signup_s", "s", "wall:setup.signup"),
    ("setup.build_fleet_s", "s", "wall:setup.build_fleet"),
    ("control.actions_executed", "count", "layer:control.actions_executed"),
    ("faults.injected", "count", "layer:faults.injected"),
    ("trace.overhead_s", "s", "overhead"),
)


def import_program() -> None:
    """Put the checkout's own sources first on the import path."""
    src = os.path.join(ROOT, "src")
    for required in (os.path.join(src, "repro", "__init__.py"),
                     os.path.join(ROOT, "tests", "integration",
                                  "test_chaos.py")):
        if not os.path.isfile(required):
            raise SystemExit(f"perfbench: {os.path.relpath(required, ROOT)} "
                             f"is missing; run from a full checkout")
    sys.path[:0] = [src, ROOT, HERE]


@dataclass
class Rep:
    """One repetition: build, run and finish a world once."""

    traced: bool
    setup_cpu: float
    laps: List[float]       # CPU seconds of each consecutive run slice
    sim_seconds: float
    events: int
    outcome: Any
    # traced repetitions only
    layers: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    walls: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    http_errors: int = 0

    @property
    def run_cpu(self) -> float:
        return sum(self.laps)


def one_rep(workload: Any, seed: int, traced: bool, out_dir: str,
            spans_path: Optional[str]) -> Rep:
    recorder = spans.Recorder() if traced else spans.NullRecorder()
    restore = spans.install(recorder) if traced else (lambda: None)
    try:
        gc.collect()
        recorder.phase = "setup"
        cpu0 = time.process_time()
        world = workload.setup(seed, recorder)
        cpu1 = time.process_time()
        sim = world["sim"]
        sim0, events0 = sim.now, sim.events_fired
        laps = workload.run(world, recorder)
        sim_seconds, events = sim.now - sim0, sim.events_fired - events0
        recorder.phase = "export"
        outcome = workload.finish(world, out_dir, recorder)
    finally:
        restore()
    rep = Rep(traced=traced, setup_cpu=cpu1 - cpu0, laps=laps,
              sim_seconds=sim_seconds, events=events, outcome=outcome)
    if traced:
        rep.layers = spans.fold(recorder.spans)
        for name, phase, _parent, start, end in recorder.spans:
            if name.startswith(("setup.", "obs.export")):
                rep.walls[name] = rep.walls.get(name, 0.0) + end - start
        rep.counts = dict(recorder.counts)
        rep.http_errors = sum(client.exchanges_failed
                              for client in recorder.http_clients.values())
        if spans_path is not None:
            recorder.write_jsonl(spans_path)
    return rep


def measure(workload: Any, seed: int, seconds: float,
            traced: bool) -> Tuple[List[Rep], List[float]]:
    """Repeat the world while another repetition fits in ``seconds``.

    Returns the repetitions and every set-up CPU time taken: one per
    untraced repetition, plus set-up-only builds (up to SETUP_SAMPLES,
    within a tenth of ``seconds``) so that ``setup_s`` is a median of
    many even for worlds whose repetitions are few.
    """
    out_dir = os.path.join(OUT_DIR, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(OUT_DIR,
                              f"{workload.name}-seed{seed}-spans.jsonl")
    reps: List[Rep] = []
    start = time.monotonic()
    while True:
        # Traced invocations interleave untraced and traced repetitions
        # so the overhead compares neighbours in time.
        trace_this = traced and len(reps) % 2 == 1
        reps.append(one_rep(workload, seed, trace_this, out_dir,
                            spans_path if trace_this else None))
        elapsed = time.monotonic() - start
        untraced_n = sum(1 for r in reps if not r.traced)
        traced_n = len(reps) - untraced_n
        minimum = untraced_n >= MIN_REPS and (not traced
                                               or traced_n >= MIN_TRACED)
        # Stop before a repetition that would end past the time given.
        if minimum and (elapsed * (len(reps) + 1) / len(reps)
                        > min(seconds, BUDGET_S)):
            break
    setups = [r.setup_cpu for r in reps if not r.traced]
    if not traced:
        extra_start = time.monotonic()
        while (len(setups) < SETUP_SAMPLES
               and time.monotonic() - extra_start < seconds / 10):
            setups.append(setup_only(workload, seed))
    return reps, setups


def setup_only(workload: Any, seed: int) -> float:
    """CPU seconds to build the world once, with nothing run."""
    gc.collect()
    cpu0 = time.process_time()
    world = workload.setup(seed, spans.NullRecorder())
    cpu = time.process_time() - cpu0
    del world
    return cpu


def tail(histogram: Any) -> Tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder step
    with at least TAIL_BEYOND samples beyond it."""
    for pct in TAIL_LADDER:
        beyond = int(histogram.count * (100.0 - pct) / 100.0)
        if beyond >= TAIL_BEYOND:
            return pct, histogram.quantile(pct / 100.0), beyond
    return 50.0, histogram.quantile(0.5), histogram.count // 2


def check_reps(reps: List[Rep]) -> List[str]:
    """Problems found in any repetition, or between repetitions."""
    problems: List[str] = []
    first = reps[0]
    for i, rep in enumerate(reps):
        out = rep.outcome
        problems.extend(f"rep {i}: {p}" for p in out.problems)
        if out.unfinished:
            problems.append(f"rep {i}: {out.unfinished} requests neither "
                            f"completed nor failed")
        if out.digest != first.outcome.digest:
            problems.append(f"rep {i} ({'traced' if rep.traced else 'plain'})"
                            f": digest {out.digest[:12]} != "
                            f"{first.outcome.digest[:12]}")
        if (rep.events, rep.sim_seconds, len(rep.laps)) != (
                first.events, first.sim_seconds, len(first.laps)):
            problems.append(f"rep {i}: {rep.events} events over "
                            f"{rep.sim_seconds} sim s != {first.events} over "
                            f"{first.sim_seconds}")
        if out.layer != first.outcome.layer:
            problems.append(f"rep {i}: exact layer values differ")
    traced = [r for r in reps if r.traced]
    for rep in traced[1:]:
        calls = {k: v[0] for k, v in rep.layers.items()}
        base = {k: v[0] for k, v in traced[0].layers.items()}
        if calls != base or rep.counts != traced[0].counts:
            problems.append("traced repetitions made different call counts")
        if rep.http_errors != traced[0].http_errors:
            problems.append("traced repetitions saw different HTTP errors")
    return problems


def run_cpu(reps: List[Rep]) -> float:
    """Run-phase CPU seconds: the sum over run slices of each slice's
    fastest repetition.

    Every repetition does the same work slice by slice, and host noise
    only ever adds time (the convention of :mod:`timeit`). The build
    host's speed changes every few seconds, so each short slice is
    likely to have run at full speed in at least one repetition."""
    return sum(min(slice_laps)
               for slice_laps in zip(*(r.laps for r in reps)))


def end_to_end(reps: List[Rep], setups: List[float]) -> Dict[str, float]:
    plain = [r for r in reps if not r.traced]
    out = plain[0].outcome
    cpu = run_cpu(plain)
    _pct, tail_value, _beyond = tail(out.latency)
    return {
        "setup_s": statistics.median(setups),
        "host_ms_per_request": cpu / out.attempted * 1000.0,
        "sim_s_per_host_s": plain[0].sim_seconds / cpu,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "load_p50_sim_ms": out.latency.quantile(0.5) * 1000.0,
        "load_tail_sim_ms": tail_value * 1000.0,
        "ok_ratio": out.ok / out.attempted,
        "origin_offload": 1.0 - out.origin_bytes / out.delivered_bytes,
    }


def per_layer(reps: List[Rep]) -> Dict[str, float]:
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    first = traced[0]

    def self_s(name: str) -> float:
        return statistics.median(r.layers.get(name, (0, 0.0))[1]
                                 for r in traced)

    values: Dict[str, float] = {}
    for metric, _unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "calls":
            value = first.layers.get(key, (0, 0.0))[0]
        elif kind == "self":
            value = self_s(key)
        elif kind == "wall":
            value = statistics.median(r.walls.get(key, 0.0) for r in traced)
        elif kind == "layer":
            value = first.outcome.layer.get(key, 0)
        elif kind == "events":
            value = first.events
        elif kind == "events_per_host_s":
            value = first.events / run_cpu(plain)
        elif kind == "http_errors":
            value = first.http_errors
        elif kind == "peers_scanned":
            wrappers = first.layers.get("nocdn.build_wrapper", (0, 0.0))[0]
            value = (first.counts.get("nocdn.peers_scanned", 0) / wrappers
                     if wrappers else 0.0)
        elif kind == "scrape_rows":
            value = first.counts.get("obs.scrape_rows", 0)
        elif kind == "overhead":
            value = run_cpu(traced) - run_cpu(plain)
        else:
            raise ValueError(f"unknown per-layer source {source!r}")
        values[metric] = value
    return values


def report(name: str, seed: int, reps: List[Rep], setups: List[float],
           traced: bool, problems: List[str]) -> Dict[str, Any]:
    """Print the readable report and return the result object."""
    plain = [r for r in reps if not r.traced]
    out = plain[0].outcome
    failed = out.failed + out.unfinished
    print(f"workload {name}  seed {seed}  repetitions {len(plain)} plain"
          f" + {len(reps) - len(plain)} traced")
    print(f"  digest {out.digest}")
    print(f"  requests attempted {out.attempted}, ok {out.ok}, failed "
          f"{out.failed}, unfinished {out.unfinished} (fail_ratio "
          f"{failed / out.attempted:.6g})")
    pct, _value, beyond = tail(out.latency)
    print(f"  load_tail_sim_ms is p{pct:g}, {beyond} of {out.latency.count} "
          f"samples beyond it")
    print("  run CPU s per repetition (T = traced): "
          + ", ".join(f"{r.run_cpu:.3f}{'T' if r.traced else ''}"
                      for r in reps))
    print("  set-up CPU s: " + ", ".join(f"{s:.4f}" for s in setups))
    if traced:
        units = {m: u for m, u, _s in PER_LAYER}
        values = per_layer(reps)
    else:
        units = dict(END_TO_END)
        values = end_to_end(reps, setups)
    for metric, value in values.items():
        print(f"  {metric:34s} {value:>16.6f} {units[metric]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    runs = len(reps)
    return {
        "correct": not problems,
        "attempted": out.attempted * runs,
        "failed": failed * runs,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in values.items()},
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    reps, setups = measure(workload, seed, seconds, traced)
    problems = check_reps(reps)
    result = report(name, seed, reps, setups, traced, problems)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if traced else "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] = (merged["correct"] and proc.returncode == 0
                             and result["correct"])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from wrapped layer calls")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
