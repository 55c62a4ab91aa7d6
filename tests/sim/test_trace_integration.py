"""Simulator semantics interacting with tracing (weak events, cancel)."""

import pytest


@pytest.fixture
def traced_sim(seeded_sim):
    def make(seed=0, **kwargs):
        sim = seeded_sim(seed)
        return sim, sim.enable_tracing(**kwargs)

    return make


class TestCancellation:
    def test_cancelled_traced_event_emits_no_span(self, traced_sim):
        sim, tracer = traced_sim()
        with tracer.trace("root"):
            doomed = sim.schedule(1.0, lambda: None, label="doomed")
            sim.schedule(2.0, lambda: None, label="survivor")
        doomed.cancel()
        sim.run()
        marks = [s.name for s in tracer.spans() if s.kind == "event"]
        assert "doomed" not in marks
        assert "survivor" in marks

    def test_cancel_inside_traced_callback(self, traced_sim):
        sim, tracer = traced_sim()
        later = sim.schedule(5.0, lambda: None, label="later")
        sim.schedule(1.0, later.cancel, label="canceller")
        sim.run()
        marks = [s.name for s in tracer.spans() if s.kind == "event"]
        assert marks == ["canceller"]
        assert sim.pending_events == 0

    def test_cancelled_event_keeps_no_context(self, traced_sim):
        """A cancelled event's captured ctx must never become current."""
        sim, tracer = traced_sim()
        seen = []
        with tracer.trace("ctx-holder"):
            doomed = sim.schedule(1.0, lambda: None, label="doomed")
        doomed.cancel()
        sim.schedule(2.0, lambda: seen.append(tracer.current.parent_id),
                     label="unparented")
        sim.run()
        assert seen == [None]


class TestWeakEvents:
    def test_run_quiesces_with_only_weak_spans_pending(self, traced_sim):
        """Traced weak (daemon) events do not keep run() alive."""
        sim, tracer = traced_sim()
        fired = []

        def heartbeat():
            fired.append(sim.now)
            with tracer.trace("heartbeat.work"):
                pass
            sim.schedule(10.0, heartbeat, label="heartbeat", weak=True)

        with tracer.trace("boot"):
            sim.schedule(10.0, heartbeat, label="heartbeat", weak=True)
            sim.schedule(25.0, lambda: None, label="strong-work")
        sim.run()
        # Quiesced after the strong event; one weak heartbeat remains queued.
        assert fired == [10.0, 20.0]
        assert sim.pending_events == 1
        # The weak re-schedule still has a traced context waiting, but that
        # alone must not have kept the run going.
        assert sim.now == 25.0

    def test_weak_event_marks_inherit_context(self, traced_sim):
        sim, tracer = traced_sim()
        with tracer.trace("root") as root:
            sim.schedule(1.0, lambda: None, label="maint", weak=True)
        sim.schedule(2.0, lambda: None, label="strong")
        sim.run()
        marks = {s.name: s for s in tracer.spans() if s.kind == "event"}
        assert marks["maint"].parent_id == root.span_id


class TestDeterminismWithTracing:
    def test_tracing_does_not_change_event_order(self, seeded_sim):
        def run(traced):
            sim = seeded_sim(3)
            if traced:
                sim.enable_tracing()
            order = []
            for i in range(5):
                sim.schedule(1.0, lambda i=i: order.append(i), label=f"e{i}")
            sim.run()
            return order, sim.now

        assert run(False) == run(True)

    def test_callback_exception_still_ends_event(self, traced_sim):
        sim, tracer = traced_sim()
        sim.schedule(1.0, lambda: 1 / 0, label="boom")
        try:
            sim.run()
        except ZeroDivisionError:
            pass
        assert tracer.current is None
        assert [s.name for s in tracer.spans() if s.kind == "event"] == [
            "boom"]
        assert sim.profiler.stats["boom"].count == 1
