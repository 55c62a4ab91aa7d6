"""Call spans recorded from outside the program, and their self-time fold.

The benchmark never edits the simulator to trace it. Instead
:func:`install` replaces a fixed list of public methods, at class level,
with thin wrappers that record one span per call: name, start, end,
parent span and the workload phase the call happened in. The returned
``restore`` callable puts every original function object back. Spans
stay in memory while a run executes and are folded (and optionally
written out) only after it ends.

Span clocks are host wall seconds (``time.perf_counter``); the
benchmark runs single-threaded, so wall and CPU differ only by what
other processes take from the core.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

NAME, PHASE, PARENT, START, END = range(5)

# (module, class, method, span name). Every entry is a public method of
# one layer; the span name is the per-layer metric prefix.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
    ("repro.sim.engine", "Simulator", "run_until", "sim.run"),
    ("repro.net.network", "Network", "path_between", "net.path_between"),
    ("repro.transport.tcp", "TcpConnection", "establish",
     "transport.establish"),
    ("repro.transport.tcp", "TcpConnection", "transfer",
     "transport.transfer"),
    ("repro.http.client", "HttpClient", "request", "http.request"),
    ("repro.nocdn.origin", "ContentProvider", "build_wrapper",
     "nocdn.build_wrapper"),
    ("repro.nocdn.origin", "ContentProvider", "alive_peers",
     "nocdn.alive_peers"),
    ("repro.nocdn.strategy", "StrategySelection", "assign", "nocdn.assign"),
    ("repro.attic.backup_service", "PeerBackupService", "backup_all",
     "attic.backup_all"),
    ("repro.util.erasure", "ReedSolomonCodec", "encode",
     "util.erasure.encode"),
    ("repro.obs.timeseries", "TimeSeriesDB", "scrape", "obs.scrape"),
    ("repro.obs.sampling", "TailSampler", "span_finished",
     "obs.sampler.span_finished"),
    ("repro.obs.slo", "SloMonitor", "evaluate", "obs.slo.evaluate"),
    ("repro.metrics.counters", "MetricsRegistry", "snapshot_series",
     "metrics.snapshot_series"),
)


class Recorder:
    """In-memory span store plus the exact counts read at call sites."""

    def __init__(self) -> None:
        # [name, phase, parent index (-1 = root), start, end]
        self.spans: List[list] = []
        self.phase = "setup"
        self.counts: Dict[str, int] = {}
        self.http_clients: Dict[int, Any] = {}
        self._stack: List[int] = []

    def enter(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, self.phase, stack[-1] if stack else -1,
                           time.perf_counter(), 0.0])
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, phase, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "phase": phase,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


class NullRecorder:
    """The untraced run's recorder: every hook is a no-op."""

    phase = "setup"

    def span(self, name: str):
        return nullcontext()


def _after_hook(span_name: str, recorder: Recorder):
    """Exact counts read from the wrapped object right after a call."""
    if span_name == "obs.scrape":
        return lambda obj: recorder.add("obs.scrape_rows",
                                        obj.last_scrape_rows)
    return None


def _before_hook(span_name: str, recorder: Recorder):
    """Exact counts read from the wrapped object before a call."""
    if span_name == "nocdn.alive_peers":
        return lambda obj: recorder.add("nocdn.peers_scanned", len(obj.peers))
    if span_name == "http.request":
        clients = recorder.http_clients
        return lambda obj: clients.setdefault(id(obj), obj)
    return None


def _wrap(fn: Callable, span_name: str, recorder: Recorder) -> Callable:
    enter, exit_ = recorder.enter, recorder.exit
    before = _before_hook(span_name, recorder)
    after = _after_hook(span_name, recorder)

    def wrapper(self, *args, **kwargs):
        if before is not None:
            before(self)
        index = enter(span_name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            exit_(index)
            if after is not None:
                after(self)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", span_name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
    return wrapper


def install(recorder: Recorder,
            targets: Sequence[Tuple[str, str, str, str]] = TARGETS
            ) -> Callable[[], None]:
    """Wrap every target method; returns a callable that restores them."""
    # (class, attribute, the class's own function or None if inherited)
    saved: List[Tuple[type, str, Any]] = []

    def restore() -> None:
        while saved:
            cls, attr, original = saved.pop()
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    try:
        for module_name, class_name, attr, span_name in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__.get(attr)
            fn = getattr(cls, attr)
            if not callable(fn) or isinstance(original, (staticmethod,
                                                          classmethod)):
                raise TypeError(f"{class_name}.{attr} is not a plain method")
            setattr(cls, attr, _wrap(fn, span_name, recorder))
            saved.append((cls, attr, original))
    except Exception:
        restore()
        raise
    return restore


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def fold(spans: Sequence[Sequence[Any]],
         phases: Iterable[str] = ("writes", "run")
         ) -> Dict[str, Tuple[int, float]]:
    """``{span name: (calls, self seconds)}`` over spans in ``phases``.

    A span's self time is its duration minus the part of it that its
    direct child spans cover; nested descendants are already inside
    their own parent's child interval, and back-to-back or overlapping
    children count each covered instant once.
    """
    phases = set(phases)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            children.setdefault(parent, []).append((span[START], span[END]))
    out: Dict[str, Tuple[int, float]] = {}
    for index, span in enumerate(spans):
        if span[PHASE] not in phases:
            continue
        interval = (span[START], span[END])
        own = interval[1] - interval[0] - covered(
            interval, children.get(index, ()))
        calls, self_s = out.get(span[NAME], (0, 0.0))
        out[span[NAME]] = (calls + 1, self_s + own)
    return out
