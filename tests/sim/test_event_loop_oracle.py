"""Differential oracle for the engine's one event loop.

Random seeded schedules (strong and weak events, same-time ties, nested
scheduling, cancels before firing, after firing and from inside
callbacks, tracing and profiling switched on and off by callbacks) are
driven by the batched ``run()`` / ``run_until()`` wrappers and by a
plain ``step()`` loop, under every instrumentation configuration. All
of them must fire the same events in the same order at the same times
and leave the same clock and accounting behind; the traced
configurations must also build the same span tree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import NULL_TRACER
from repro.sim.engine import SimulationError, Simulator

# Starting instrumentation of each configuration.
CONFIGS = {
    "bare": lambda sim: None,
    "lite": lambda sim: sim.enable_tracing(trace_events=False,
                                           profile_events=False),
    "marks": lambda sim: sim.enable_tracing(profile_events=False),
    "full": lambda sim: sim.enable_tracing(),
    "profiler": lambda sim: sim.enable_profiling(),
}
TRACED = ("lite", "marks", "full")

# Events one schedule may create; bounds nested scheduling.
CAP = 60
HORIZON = 10.0

TOGGLES = [None, None, None, "trace_on", "trace_off", "prof_on", "prof_off"]

SPEC = st.fixed_dictionaries({
    "children": st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]), st.booleans()),
        max_size=3),
    "cancel": st.none() | st.integers(0, CAP),
    "toggle": st.sampled_from(TOGGLES),
    "span": st.booleans(),
})

PROGRAM = st.fixed_dictionaries({
    "roots": st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.0, 3.0]), st.booleans()),
        min_size=1, max_size=8),
    "specs": st.lists(SPEC, min_size=1, max_size=12),
    "pre_cancel": st.lists(st.integers(0, CAP), max_size=3),
    "post_cancel": st.lists(st.integers(0, CAP), max_size=3),
    # enable_tracing() arguments used by "trace_on" toggles.
    "trace_on": st.tuples(st.booleans(), st.booleans()),
    "slice": st.sampled_from([0.25, 0.7, 1.5, 4.0]),
    "max_events": st.integers(1, 9),
})


class World:
    """One schedule on one simulator, recording what fires."""

    def __init__(self, program, config):
        self.program = program
        self.sim = Simulator(seed=0)
        CONFIGS[config](self.sim)
        self.events = []
        self.fired = []
        # span name -> (parent span name or None, trace root name)
        self.tree = {}
        self.spans = {}
        # event mark -> the span it resolves to (its event's cause)
        self.via_mark = {}
        # profiler -> events it must have timed
        self.timed = {}
        for delay, weak in program["roots"]:
            self.schedule(delay, weak)
        self.cancel_all(program["pre_cancel"])

    def schedule(self, delay, weak, force=False):
        k = len(self.events)
        if k >= CAP and not force:
            return
        self.events.append(self.sim.schedule(
            delay, lambda: self.fire(k), label=f"e{k % 3}", weak=weak))

    def cancel_all(self, indexes):
        for i in indexes:
            self.events[i % len(self.events)].cancel()

    def resolve(self, ctx):
        """The span a context stands for, looking through event marks."""
        if ctx is None or ctx.kind == "span":
            return ctx
        return self.via_mark[ctx]

    def fire(self, k):
        sim = self.sim
        self.fired.append((k, sim.now))
        event = self.events[k]
        tracer = sim.tracer
        cur = tracer.current
        if tracer.enabled and tracer.trace_events:
            # An event mark sits between the event and its cause.
            assert cur.kind == "event" and cur.name == event.label
            ctx = event.ctx
            assert cur.parent_id == (ctx.span_id if ctx else None)
            self.via_mark[cur] = self.resolve(ctx)
        elif tracer.enabled:
            assert cur is event.ctx
        if sim.profiler is not None:
            self.timed[sim.profiler] = self.timed.get(sim.profiler, 0) + 1
        specs = self.program["specs"]
        spec = specs[k % len(specs)]
        toggle = spec["toggle"]
        if toggle == "trace_on":
            trace_events, profile_events = self.program["trace_on"]
            sim.enable_tracing(trace_events=trace_events,
                               profile_events=profile_events)
        elif toggle == "trace_off":
            sim.disable_tracing()
        elif toggle == "prof_on":
            sim.enable_profiling()
        elif toggle == "prof_off":
            sim.disable_profiling()
        span = self.open_span(k, check_ctx=toggle is None) if spec[
            "span"] else None
        if span is None:
            for delay, weak in spec["children"]:
                self.schedule(delay, weak)
        else:
            with sim.tracer.activate(span):
                for delay, weak in spec["children"]:
                    self.schedule(delay, weak)
            span.finish()
        if spec["cancel"] is not None:
            self.cancel_all([spec["cancel"]])

    def open_span(self, k, check_ctx):
        tracer = self.sim.tracer
        if not tracer.enabled:
            return None
        parent = self.resolve(tracer.current)
        if check_ctx:
            assert parent is self.resolve(self.events[k].ctx)
        span = tracer.start_span(f"s{k}")
        name = span.name
        if parent is None:
            root = name
        else:
            root = self.tree[parent.name][1]
            assert span.trace_id == self.spans[root].trace_id
        self.tree[name] = (parent.name if parent is not None else None, root)
        self.spans[name] = span
        return span

    def state(self):
        sim = self.sim
        return (list(self.fired), sim.now, sim.events_fired,
                sim.pending_events, sim._strong_pending)


def next_due(sim):
    times = [e.time for _t, _s, e in sim._heap
             if not e.cancelled and not e.fired]
    return min(times) if times else None


def drive_run(world):
    return world.sim.run()


def drive_run_steps(world):
    sim = world.sim
    while sim._strong_pending > 0 and sim.step():
        pass


def drive_run_sliced(world):
    """``run(max_events=n)`` repeatedly, as a lap-timing loop does."""
    sim = world.sim
    n = world.program["max_events"]
    while True:
        before = sim.events_fired
        try:
            fired = sim.run(max_events=n)
        except SimulationError:
            assert sim.events_fired - before == n
            continue
        assert fired < n
        assert sim.events_fired - before == fired
        return


def slice_points(world):
    start = world.sim.now
    width = world.program["slice"]
    points = []
    t = start
    while t < start + HORIZON:
        t = min(t + width, start + HORIZON)
        points.append(t)
    return points


def drive_until(world):
    for t in slice_points(world):
        world.sim.run_until(t)


def drive_until_steps(world):
    sim = world.sim
    for t in slice_points(world):
        while True:
            due = next_due(sim)
            if due is None or due > t:
                break
            sim.step()
        sim.now = max(sim.now, t)


def play(program, config, drive):
    """Drive the schedule, cancel some events (fired ones included),
    add fresh strong work and drive again."""
    world = World(program, config)
    drive(world)
    first = world.state()
    world.cancel_all(program["post_cancel"])
    world.schedule(1.0, False, force=True)
    drive(world)
    assert vars(NULL_TRACER) == {}
    for profiler, events in world.timed.items():
        assert profiler.events == events
    return world, (first, world.state())


@settings(max_examples=60, deadline=None)
@given(PROGRAM)
def test_one_loop_matches_step_reference(program):
    families = {
        "run": (drive_run, drive_run_steps, drive_run_sliced),
        "run_until": (drive_until, drive_until_steps),
    }
    for drivers in families.values():
        outcomes = {}
        trees = {}
        for config in CONFIGS:
            for drive in drivers:
                world, outcome = play(program, config, drive)
                outcomes[(config, drive.__name__)] = outcome
                if config in TRACED:
                    trees[(config, drive.__name__)] = world.tree
        reference = next(iter(outcomes.values()))
        for key, outcome in outcomes.items():
            assert outcome == reference, key
        tree = next(iter(trees.values()))
        for key, other in trees.items():
            assert other == tree, key


@pytest.mark.parametrize("config", list(CONFIGS))
def test_run_max_events_raises_after_exactly_n(config):
    sim = Simulator(seed=0)
    CONFIGS[config](sim)

    def forever():
        sim.schedule(1.0, forever, label="loop")

    sim.schedule(1.0, forever, label="loop")
    with pytest.raises(SimulationError):
        sim.run(max_events=7)
    assert sim.events_fired == 7
    assert sim.now == 7.0
    with pytest.raises(SimulationError):
        sim.run_until(100.0, max_events=5)
    assert sim.events_fired == 12
    assert sim.now == 12.0  # the clock stays at the last fired event


@pytest.mark.parametrize("config", list(CONFIGS))
def test_run_below_max_events_returns_count(config):
    sim = Simulator(seed=0)
    CONFIGS[config](sim)
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    assert sim.run(max_events=5) == 4
    assert sim.events_fired == 4
    assert sim.step() is False
