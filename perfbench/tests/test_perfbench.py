"""The benchmark's own checks: wrapping, self-time folding, digests."""

import importlib

import pytest

import run
import spans
import workloads


def _originals():
    out = {}
    for module_name, class_name, attr, _span in spans.TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        out[(class_name, attr)] = (cls, cls.__dict__.get(attr))
    return out


def test_install_restores_every_original_function():
    before = _originals()
    restore = spans.install(spans.Recorder())
    for (class_name, attr), (cls, original) in before.items():
        assert cls.__dict__.get(attr) is not original, (class_name, attr)
    restore()
    for (class_name, attr), (cls, original) in before.items():
        assert cls.__dict__.get(attr) is original, (class_name, attr)


def test_install_rolls_back_when_a_target_is_missing():
    before = _originals()
    targets = spans.TARGETS + (("repro.sim.engine", "Simulator",
                                "no_such_method", "x"),)
    with pytest.raises(AttributeError):
        spans.install(spans.Recorder(), targets)
    for (class_name, attr), (cls, original) in before.items():
        assert cls.__dict__.get(attr) is original, (class_name, attr)


def test_wrapped_calls_record_nested_spans_with_phase():
    from repro.sim.engine import Simulator

    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        sim = Simulator(seed=1)
        recorder.phase = "run"
        sim.at(1.0, lambda: sim.run_until(1.0))
        sim.run()
    finally:
        restore()
    names = [(s[spans.NAME], s[spans.PHASE], s[spans.PARENT])
             for s in recorder.spans]
    assert names == [("sim.run", "run", -1), ("sim.run", "run", 0)]
    assert all(s[spans.END] >= s[spans.START] for s in recorder.spans)


def _span(name, parent, start, end, phase="run"):
    return [name, phase, parent, start, end]


def test_fold_subtracts_nested_and_back_to_back_children():
    synthetic = [
        _span("sim.run", -1, 0.0, 10.0),
        _span("http.request", 0, 1.0, 3.0),
        _span("net.path_between", 1, 1.5, 2.0),   # nested in a child
        _span("http.request", 0, 3.0, 5.0),       # back to back
        _span("net.path_between", 0, 6.0, 7.0),
    ]
    folded = spans.fold(synthetic)
    assert folded["sim.run"] == (1, pytest.approx(10.0 - 5.0))
    assert folded["http.request"] == (2, pytest.approx(1.5 + 2.0))
    assert folded["net.path_between"] == (2, pytest.approx(0.5 + 1.0))


def test_fold_counts_overlapping_children_once_and_filters_phases():
    synthetic = [
        _span("setup.signup", -1, 0.0, 4.0, phase="setup"),
        _span("sim.run", -1, 10.0, 20.0),
        _span("a", 1, 11.0, 15.0),
        _span("b", 1, 13.0, 16.0),
        _span("c", 1, 19.0, 25.0),     # clipped to the parent's end
    ]
    folded = spans.fold(synthetic)
    assert "setup.signup" not in folded
    assert folded["sim.run"][1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert spans.fold(synthetic, phases=("setup",)) == {
        "setup.signup": (1, pytest.approx(4.0))}


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    hist = workloads.histogram_of([float(i) for i in range(400)])
    pct, _value, beyond = run.tail(hist)
    assert (pct, beyond) == (95.0, 20)
    hist = workloads.histogram_of([float(i) for i in range(1000)])
    assert run.tail(hist)[0] == 99.0


def test_run_in_event_slices_fires_what_one_run_fires():
    from repro.sim.engine import Simulator

    sim = Simulator(seed=3)
    fired = []
    for i in range(23):
        sim.at(i * 0.5, lambda i=i: fired.append(i))
    laps = workloads.laps_of_run(sim, 5)
    assert len(laps) == 5          # four full slices, then three events
    assert fired == list(range(23))
    assert sim.events_fired == 23


def test_run_in_event_slices_passes_on_a_callbacks_error():
    from repro.sim.engine import SimulationError, Simulator

    sim = Simulator(seed=3)
    sim.at(1.0, lambda: sim.at(0.5, lambda: None))   # into the past
    with pytest.raises(SimulationError, match="before now"):
        workloads.laps_of_run(sim, 5)


def test_run_cpu_sums_each_slices_fastest_repetition():
    def rep(laps):
        return run.Rep(traced=False, setup_cpu=0.0, laps=laps,
                       sim_seconds=1.0, events=1, outcome=None)

    reps = [rep([1.0, 5.0, 2.0]), rep([3.0, 4.0, 2.5]), rep([2.0, 6.0, 9.0])]
    assert run.run_cpu(reps) == pytest.approx(1.0 + 4.0 + 2.0)


class SmallCity(workloads.NocdnCity):
    neighborhoods = 3
    homes = 6
    loads = 12


class SmallFleet(workloads.FleetObs):
    num_homes = 3000
    requests = 60
    sim_seconds = 21.0


class SmallChaos(workloads.ChaosServices):
    loads = 40


@pytest.mark.parametrize("workload", [SmallCity(), SmallFleet(),
                                      SmallChaos()],
                         ids=lambda w: w.name)
def test_traced_run_has_the_untraced_digest_and_counts(workload, tmp_path):
    plain = run.one_rep(workload, 7, False, str(tmp_path), None)
    traced = run.one_rep(workload, 7, True, str(tmp_path),
                         str(tmp_path / "spans.jsonl"))
    again = run.one_rep(workload, 7, True, str(tmp_path), None)
    assert not plain.outcome.problems
    assert plain.outcome.unfinished == 0
    assert traced.outcome.digest == plain.outcome.digest
    assert traced.events == plain.events
    assert traced.layers["sim.run"][0] >= 1
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    assert run.check_reps([plain, traced, again]) == []


def test_check_reps_reports_a_changed_digest(tmp_path):
    workload = SmallCity()
    first = run.one_rep(workload, 7, False, str(tmp_path), None)
    other = run.one_rep(workload, 8, False, str(tmp_path), None)
    problems = run.check_reps([first, other])
    assert any("digest" in p for p in problems)
