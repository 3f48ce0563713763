"""Frame-level replay tests: the oracle against hand counts and the engine."""

import dataclasses
import math
import random
from bisect import bisect_right, insort
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from afmsim import oracle
from afmsim.controllers import ControllerSpec, make_controllers
from afmsim.engine import (
    FatalEvent,
    compute_lambdas,
    init_state,
    simulate,
    step,
)
from afmsim.oracle import (
    LinkReplay,
    Mismatch,
    compare,
    rebuild_trajectories,
    replay,
    verify_scenario,
)
from afmsim.phase import floor_of, tick_times
from afmsim.scenarios import gearbox_pair, random_scenario, triangle3
from afmsim.topology import Link, SystemParams, Topology, ValidationError, validate
from afmsim.trajectory import ClockTrajectory

from conftest import (
    closed_form_beta,
    closed_form_gamma,
    geared_triangle,
    tied_triangle,
    two_node_scenario,
)


def in_flight(lr, t, lat):
    """Frames on the link at time t: arrivals in (t, t + latency]."""
    return bisect_right(lr.arrival_times, t + lat) - bisect_right(lr.arrival_times, t)


def count(lr, t):
    """Frames in the buffer at time t, counted here and not by ``LinkReplay``."""
    return lr.initial + bisect_right(lr.arrival_times, t) - bisect_right(lr.consume_times, t)


def occupancy(lr, t):
    """``LinkReplay.occupancies`` at the one time t."""
    return lr.occupancies([t])[0]


def event_times(lr, horizon):
    return [t for t in lr.arrival_times if t <= horizon] + lr.consume_times


def run_state(scenario, spec, horizon):
    state = init_state(scenario, make_controllers(spec, scenario.topology.n_nodes))
    while min(t.max_dom() for t in state.trajectories.values()) < horizon:
        step(state)
    return state


# -- tick times ------------------------------------------------------------------

def test_tick_slice_count_matches_floor_difference():
    traj = ClockTrajectory([(-5.0, -4.5), (0.0, 0.5), (3.0, 7.3), (9.0, 11.0)])
    m0, times = tick_times(traj, 1, -5.0)
    rng = random.Random(3)
    for _ in range(50):
        lo = rng.uniform(-4.5, 11.0)
        hi = rng.uniform(lo, 11.0)
        ticks = times[math.floor(lo) + 1 - m0 : math.floor(hi) + 1 - m0]
        assert len(ticks) == math.floor(hi) - math.floor(lo)
        for m, t in enumerate(ticks, start=math.floor(lo) + 1):
            assert traj.eval(t) == pytest.approx(m, abs=1e-9)


def test_tick_times_consecutive_with_gearbox():
    traj = ClockTrajectory([(0.0, 0.1), (4.0, 2.7), (10.0, 11.3)])
    m0, times = tick_times(traj, Fraction(3, 2), 0.0)
    assert times == sorted(times)
    # times[k] is the crossing of m0 + k: floor(1.5 * 0.1) + 1
    assert m0 == 1
    for k, t in enumerate(times):
        assert traj.eval(t) * 3 / 2 == pytest.approx(m0 + k, abs=1e-9)
    # scaled floor difference: floor(1.5*11.3) - floor(1.5*0.1) = 16 - 0
    assert len(times) == 16


def test_replay_tick_work_does_not_grow_with_the_epoch(monkeypatch):
    counted = []

    def counting(*args):
        m0, times = tick_times(*args)
        counted.append(len(times))
        return m0, times

    monkeypatch.setattr(oracle, "tick_times", counting)
    cfg = triangle3()
    ticks = {}
    for epoch in (-25.0, -1e6):
        params = dataclasses.replace(cfg.scenario.params, epoch=epoch)
        sc = validate(cfg.scenario.topology, params)
        trajs = rebuild_trajectories(simulate(sc, cfg.controller, 10.0), sc)
        counted.clear()
        replay(trajs, sc, 10.0)
        ticks[epoch] = sum(counted)
    assert ticks[-1e6] == ticks[-25.0] > 0


def test_replay_bounds_the_ticks_it_would_list(monkeypatch):
    # The count from the floors at each clock's two ends is the number of
    # ticks the lists would hold: at that many the replay refuses to list
    # them, one below it lists them all.
    counted = []

    def counting(*args):
        m0, times = tick_times(*args)
        counted.append(len(times))
        return m0, times

    monkeypatch.setattr(oracle, "tick_times", counting)
    cfg = triangle3()
    sc = cfg.scenario
    trajs = rebuild_trajectories(simulate(sc, cfg.controller, 10.0), sc)
    replay(trajs, sc, 10.0)
    n_ticks = sum(counted)
    counted.clear()
    monkeypatch.setattr(oracle, "MAX_REPLAY_TICKS", n_ticks)
    with pytest.raises(ValidationError) as err:
        replay(trajs, sc, 10.0)
    assert counted == []
    (violation,) = err.value.violations
    assert (violation.name, violation.subject) == ("value_out_of_range", "replay")
    assert violation.detail == (
        f"the clocks tick {n_ticks} times from t=-1.0 to their last knots, not below {n_ticks}"
    )
    monkeypatch.setattr(oracle, "MAX_REPLAY_TICKS", n_ticks + 1)
    replay(trajs, sc, 10.0)
    assert sum(counted) == n_ticks


# -- replay basics ----------------------------------------------------------------

def test_identical_nodes_constant_occupancy(zero_spec):
    # arrivals and consumptions collide to the tick; arrivals apply first, so
    # the settled occupancy never moves
    sc = two_node_scenario()
    state = run_state(sc, zero_spec, 60.0)
    result = replay(state.trajectories, sc, 60.0)
    for key in ((1, 2), (2, 1)):
        lr = result.links[key]
        assert lr.initial == 7
        assert all(occupancy(lr, t) == 7 for t in event_times(lr, 60.0))
        for t in (0.0, 0.25, 7.5, 59.9):
            assert occupancy(lr, t) == 7
    assert result.violations == []


def test_same_instant_arrival_and_consumption_cancel(zero_spec):
    # with no slack at all, every arrival lands on the exact time of a
    # consumption; counting both at that instant keeps the buffer at zero,
    # while counting only earlier arrivals would report an underflow of -1
    sc = two_node_scenario(beta0=0)
    state = run_state(sc, zero_spec, 60.0)
    result = replay(state.trajectories, sc, 60.0)
    assert result.violations == []
    for lr in result.links.values():
        arrivals = [t for t in lr.arrival_times if t <= 60.0]
        assert len(arrivals) == 60
        assert set(arrivals) <= set(lr.consume_times)
        assert all(occupancy(lr, t) == 0 for t in event_times(lr, 60.0))


@pytest.mark.parametrize(
    "arrivals, consumes, ts, want",
    [
        ([1.0, 2.0], [2.0, 3.0], [1.0, 2.0, 3.0], [4, 4, 3]),
        ([0.5], [2.0, 2.0, 2.0], [1.9, 2.0, 2.1], [4, 1, 1]),
        ([1.0, 2.0], [1.5], [1.0, 1.0, 1.5, 1.5, 2.0, 2.0], [4, 4, 3, 3, 4, 4]),
        ([1.0, 2.0, 2.2], [1.5, 2.5], [-1.0, 0.0, 0.99, 2.5, 3.0, 100.0], [3, 3, 3, 4, 4, 4]),
        ([], [], [-1.0, 0.0, 5.0], [3, 3, 3]),
        ([1.0], [2.0], [], []),
    ],
    ids=[
        "arrival_and_consume_at_a_query_time",
        "several_consumes_at_one_instant",
        "repeated_query_times",
        "before_first_and_after_last_event",
        "empty_lists",
        "no_query_times",
    ],
)
def test_occupancies_equal_the_local_count(arrivals, consumes, ts, want):
    lr = LinkReplay(initial=3, send_times=[], arrival_times=arrivals, consume_times=consumes)
    assert [count(lr, t) for t in ts] == want
    assert lr.occupancies(ts) == want
    assert [occupancy(lr, t) for t in ts] == want


# Few distinct values, so arrivals, consumptions and query times often tie.
TIME_GRID = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
tied_times = st.lists(st.sampled_from(TIME_GRID), max_size=12).map(sorted)


@given(arrivals=tied_times, consumes=tied_times, ts=tied_times, initial=st.integers(0, 5))
@example(arrivals=[], consumes=[], ts=[-1.0, 0.0, 4.0], initial=2)
@example(arrivals=[1.0, 1.0, 2.0], consumes=[], ts=[0.0, 1.0], initial=0)
@example(arrivals=[], consumes=[0.5, 0.5], ts=[0.5, 4.0], initial=5)
@example(arrivals=[0.5, 1.0, 1.5], consumes=[1.0, 2.0], ts=[-1.0, 0.0, 3.0, 4.0], initial=1)
@example(arrivals=[0.5, 1.0], consumes=[1.0], ts=[-math.inf, 1.0, math.inf], initial=0)
def test_occupancies_equal_the_local_count_on_tied_times(arrivals, consumes, ts, initial):
    lr = LinkReplay(initial=initial, send_times=[], arrival_times=arrivals, consume_times=consumes)
    assert lr.occupancies(ts) == [count(lr, t) for t in ts]


@pytest.mark.parametrize(
    "ts",
    [[2.0, 1.0], [1.0, 2.0, 1.5], [math.inf, 0.0], [math.nan], [1.0, math.nan], [math.nan, 1.0]],
    ids=["reversed", "one_step_back", "inf_first", "lone_nan", "nan_last", "nan_first"],
)
def test_occupancies_reject_unordered_or_nan_times(ts):
    lr = LinkReplay(initial=3, send_times=[], arrival_times=[1.0, 2.0], consume_times=[1.5])
    with pytest.raises(ValueError, match="ascending"):
        lr.occupancies(ts)


@pytest.mark.parametrize("arrivals, consumes", [([], []), ([1.0, 2.0, 2.0], [1.5, 2.0])])
def test_occupancy_at_infinite_and_int_times(arrivals, consumes):
    # No walk may run off its list at t = inf, and an int time compares as
    # its float does.
    lr = LinkReplay(initial=3, send_times=[], arrival_times=arrivals, consume_times=consumes)
    ts = [-math.inf, 0, 1, 2, 2.0, 10, math.inf, math.inf]
    assert lr.occupancies(ts) == [count(lr, t) for t in ts]
    for t in ts:
        assert occupancy(lr, t) == count(lr, t)


def scanned_bounds(lr, capacity, horizon):
    """The first underflow and overflow times, found by counting at every event."""
    under = next((t for t in lr.consume_times if count(lr, t) < 0), None)
    over = next(
        (t for t in lr.arrival_times if t <= horizon and count(lr, t) > capacity), None
    )
    return under, over


@given(
    arrivals=tied_times,
    consumes=tied_times,
    initial=st.integers(-2, 6),
    headroom=st.integers(0, 3),
    horizon=st.sampled_from(TIME_GRID + [math.inf]),
)
# beta0 = 0: the first consumption before any arrival underflows
@example(arrivals=[1.0], consumes=[0.5, 1.0], initial=0, headroom=1, horizon=4.0)
# capacity = beta0: the first arrival before any consumption overflows
@example(arrivals=[0.5], consumes=[1.0], initial=2, headroom=0, horizon=4.0)
# ties at the violating time, where only the last of the group is unpaired
@example(arrivals=[1.0, 1.0, 1.0], consumes=[1.0], initial=1, headroom=1, horizon=4.0)
@example(arrivals=[0.5], consumes=[0.5, 0.5], initial=0, headroom=3, horizon=4.0)
# lists that run out before the pairing ends
@example(arrivals=[], consumes=[0.5, 1.0], initial=1, headroom=0, horizon=4.0)
@example(arrivals=[0.5, 1.0, 2.0], consumes=[], initial=0, headroom=1, horizon=1.5)
@example(arrivals=[0.5, 1.0, 2.0], consumes=[], initial=0, headroom=1, horizon=0.5)
@example(arrivals=[0.0], consumes=[], initial=-2, headroom=0, horizon=4.0)
# a fill above capacity (tests set ``initial`` by hand): the pairing shift is
# negative, and may pass the end of the consumptions
@example(arrivals=[1.0], consumes=[0.5, 0.5, 2.0], initial=5, headroom=-2, horizon=4.0)
@example(arrivals=[0.5], consumes=[0.5, 0.5], initial=5, headroom=-2, horizon=4.0)
@example(arrivals=[0.5, 1.0], consumes=[0.5], initial=5, headroom=-2, horizon=4.0)
@example(arrivals=[1.0], consumes=[0.5, 0.5, 0.5], initial=5, headroom=-2, horizon=4.0)
def test_bound_scans_equal_the_per_event_scan(arrivals, consumes, initial, headroom, horizon):
    lr = LinkReplay(initial=initial, send_times=[], arrival_times=arrivals, consume_times=consumes)
    capacity = initial + headroom
    assert (lr.first_underflow(), lr.first_overflow(capacity, horizon)) == scanned_bounds(
        lr, capacity, horizon
    )


def test_single_link_hand_count():
    # sender twice as fast as the receiver: occupancy grows by the send count
    # minus the consume count, both countable by floor differences
    sc = two_node_scenario(omega_u=(2.0, 1.0), theta0=(0.3, 0.7), beta0=5)
    state = run_state(sc, ControllerSpec(kind="zero"), 10.0)
    result = replay(state.trajectories, sc, 10.0)
    th_s, th_r = state.trajectories[1], state.trajectories[2]
    for t in (0.4, 1.9, 3.3, 6.05, 9.9):
        sent = math.floor(th_s.eval(t - 1.0)) - math.floor(th_s.eval(-1.0))
        consumed = math.floor(th_r.eval(t)) - math.floor(th_r.eval(0.0))
        assert occupancy(result.links[(1, 2)], t) == 5 + sent - consumed


def test_replay_requires_coverage(zero_spec):
    sc = two_node_scenario(omega_u=(2.0, 1.0), latency=1.5)
    state = run_state(sc, zero_spec, 20.0)
    horizon = min(t.max_dom() for t in state.trajectories.values())
    for bad in (horizon + 1.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            replay(state.trajectories, sc, bad)
    # at horizon zero only the frames in flight at time zero are left
    zero = replay(state.trajectories, sc, 0.0)
    full = replay(state.trajectories, sc, horizon)
    for (a, b), lr in zero.links.items():
        lat = sc.topology.links[(a, b)].latency
        assert lr.send_times == [] and lr.consume_times == []
        in_flight_at_zero = closed_form_gamma(state.trajectories[a], 0.0, lat)
        assert len(lr.arrival_times) == in_flight_at_zero > 0
        assert all(0.0 < t <= lat for t in lr.arrival_times)
        assert lr.arrival_times == full.links[(a, b)].arrival_times[:in_flight_at_zero]


def test_fifo_arrival_order_preserves_send_order():
    cfg = triangle3()
    state = run_state(cfg.scenario, cfg.controller, 50.0)
    result = replay(state.trajectories, cfg.scenario, 50.0)
    for (a, b), lr in result.links.items():
        lat = cfg.scenario.topology.links[(a, b)].latency
        assert lr.send_times == sorted(lr.send_times)
        assert lr.arrival_times == sorted(lr.arrival_times)
        assert lr.consume_times == sorted(lr.consume_times)
        # the last arrivals are the sends, in send order, shifted by the latency
        assert lr.arrival_times[-len(lr.send_times):] == [s + lat for s in lr.send_times]


def test_in_flight_matches_link_occupancy_formula():
    cfg = triangle3()
    sc = cfg.scenario
    state = run_state(sc, cfg.controller, 40.0)
    result = replay(state.trajectories, sc, 40.0)
    rng = random.Random(11)
    for (a, b) in sc.topology.directed_links():
        lat = sc.topology.links[(a, b)].latency
        for _ in range(50):
            t = rng.uniform(0.0, 39.0 - lat)
            assert in_flight(result.links[(a, b)], t, lat) == closed_form_gamma(
                state.trajectories[a], t, lat
            )


def test_counted_conservation_at_random_times():
    cfg = triangle3()
    sc = cfg.scenario
    state = run_state(sc, cfg.controller, 40.0)
    result = replay(state.trajectories, sc, 40.0)
    rng = random.Random(5)
    for (a, b) in sc.topology.edges():
        lam_sum = state.lam[(a, b)] + state.lam[(b, a)]
        fwd, rev = result.links[(a, b)], result.links[(b, a)]
        lat_fwd = sc.topology.links[(a, b)].latency
        lat_rev = sc.topology.links[(b, a)].latency
        for _ in range(100):
            t = rng.uniform(0.0, 35.0)
            total = (
                occupancy(fwd, t) + in_flight(fwd, t, lat_fwd)
                + occupancy(rev, t) + in_flight(rev, t, lat_rev)
            )
            assert total == lam_sum


def test_underflow_reported_with_event_time(zero_spec):
    sc = two_node_scenario(omega_u=(1.0, 2.0), beta0=2)
    state = run_state(sc, zero_spec, 30.0)
    result = replay(state.trajectories, sc, 30.0)
    under = [v for v in result.violations if v.kind == "underflow"]
    assert under and under[0].link == (1, 2)
    ev = under[0]
    assert ev.occupancy == -1
    # the formula agrees that occupancy is negative right at the event
    link = sc.topology.links[(1, 2)]
    assert (
        closed_form_beta(
            state.trajectories[1], state.trajectories[2], state.lam[(1, 2)], link.latency, ev.t
        )
        == -1
    )


def test_overflow_reported_with_capacity(zero_spec):
    sc = two_node_scenario(omega_u=(1.0, 2.0), beta0=3, capacity=5)
    state = run_state(sc, zero_spec, 30.0)
    result = replay(state.trajectories, sc, 30.0)
    over = [v for v in result.violations if v.kind == "overflow"]
    assert over and over[0].link == (2, 1)
    assert over[0].occupancy == 6


# -- engine equivalence ------------------------------------------------------------

def test_reference_triangle_equivalence():
    cfg = triangle3()
    report = verify_scenario(cfg.scenario, cfg.controller, 50.0)
    assert report.ok
    assert report.n_comparisons > 0


def test_gearbox_equivalence():
    cfg = gearbox_pair()
    report = verify_scenario(cfg.scenario, cfg.controller, 50.0)
    assert report.ok
    # forward direction really runs at two frames per tick of the unit clock
    fwd = report.result.links[(1, 2)]
    assert len(fwd.send_times) == pytest.approx(2 * report.result.horizon, abs=3)


def test_compare_flags_injected_disagreement():
    cfg = triangle3()
    sc = cfg.scenario
    trace = simulate(sc, cfg.controller, 30.0)
    trajs = rebuild_trajectories(trace, sc)
    horizon = min(t.max_dom() for t in trajs.values())
    result = replay(trajs, sc, horizon)
    # sabotage one link by one frame
    result.links[(1, 2)].initial += 1
    mismatches = compare(result, trace, sc, trajs)
    assert mismatches
    first = mismatches[0]
    assert first.link == (1, 2)
    assert first.oracle == first.formula + 1
    assert mismatches == sorted(mismatches, key=lambda m: (m.t, m.link))


def reference_compare(result, trace, scenario, trajectories):
    """The per-sample form of ``compare``: ``closed_form_beta`` and the local
    ``count`` at each sample time and link, one at a time."""
    topo = scenario.topology
    lam = compute_lambdas(scenario, trajectories)
    mismatches = []
    for rec in trace.samples:
        t = rec.t_sample
        if t > result.horizon:
            continue
        for (a, b) in topo.directed_links():
            link = topo.links[(a, b)]
            formula = closed_form_beta(
                trajectories[a], trajectories[b], lam[(a, b)], link.latency, t, link.gearbox
            )
            oracle_occ = count(result.links[(a, b)], t)
            if oracle_occ != formula:
                mismatches.append(Mismatch(t, (a, b), oracle_occ, formula))
    mismatches.sort(key=lambda m: (m.t, m.link))
    return mismatches


def both_compares(scenario, controller, t_max, tamper=None):
    """``compare`` and ``reference_compare`` on one run; ``tamper(result,
    trace)`` may edit the replay first."""
    trace = simulate(scenario, controller, t_max)
    trajs = rebuild_trajectories(trace, scenario)
    horizon = min(t.max_dom() for t in trajs.values())
    result = replay(trajs, scenario, horizon)
    if tamper is not None:
        tamper(result, trace)
    return (
        compare(result, trace, scenario, trajs),
        reference_compare(result, trace, scenario, trajs),
    )


@pytest.mark.parametrize("k_p", [0.01, 0.001])
def test_compare_equals_per_sample_reference(k_p):
    # At k_p=0.001, triangle3 and its geared variant each hold two mismatches
    # at t=4.8095...: the crossing-time defect pinned below, seen by both forms.
    spec = ControllerSpec(kind="proportional", k_p=k_p)
    scenarios = [triangle3().scenario, gearbox_pair().scenario, geared_triangle()]
    scenarios += [random_scenario(random.Random(seed)).scenario for seed in range(10)]
    for sc in scenarios:
        swept, reference = both_compares(sc, spec, 100.0)
        assert swept == reference


def test_compare_equals_per_sample_reference_on_mismatches():
    # Every sample disagrees on the sabotaged link. In the tied triangle,
    # nodes 1 and 2 run identical clocks, so sample times repeat.
    def sabotage(result, trace):
        result.links[(3, 1)].initial += 1

    cfg = tied_triangle()
    tied = both_compares(cfg.scenario, cfg.controller, 30.0, sabotage)
    geared = both_compares(geared_triangle(), cfg.controller, 30.0, sabotage)
    for swept, reference in (tied, geared):
        assert swept == reference
        assert swept and all(m.link == (3, 1) for m in swept)
    assert len({m.t for m in tied[0]}) < len(tied[0])


def test_compare_counts_events_at_a_sample_time():
    # Replayed events never fall exactly on a sample time by themselves, so
    # insert some: an arrival on link (1, 2) and a consumption on link (2, 1)
    # at every other sample time. Both count at exactly t, as in occupancy.
    def insert_events(result, trace):
        for rec in trace.samples[::2]:
            insort(result.links[(1, 2)].arrival_times, rec.t_sample)
            insort(result.links[(2, 1)].consume_times, rec.t_sample)

    cfg = triangle3()
    swept, reference = both_compares(cfg.scenario, cfg.controller, 30.0, insert_events)
    assert swept == reference
    assert {m.link for m in swept} == {(1, 2), (2, 1)}


def test_compare_keeps_the_crossing_ulp_mismatch():
    # The phase.tick_times reproducer: node 2's tick 10 is at t=10 exactly,
    # and the oracle's crossing time rounds one ulp past it. Both forms of
    # compare see the same single mismatch. Defining the crossing through
    # ClockTrajectory.eval (the ROADMAP item "One phase function for the
    # engine and the oracle") will turn this into [].
    sc = two_node_scenario(omega_u=(1.0, 0.95), beta0=5, epoch=-23.0)
    swept, reference = both_compares(sc, ControllerSpec(kind="zero"), 30.0)
    assert swept == reference == [Mismatch(t=10.0, link=(1, 2), oracle=6, formula=5)]


def grid_disagreements(scenario, controller, t_max):
    """``(quantity, t, link, written, replayed)`` wherever the trace's beta or
    gamma at a grid point up to the horizon differs from the replay: its
    ``occupancies`` for beta and the local ``in_flight`` for gamma."""
    trace = simulate(scenario, controller, t_max)
    trajs = rebuild_trajectories(trace, scenario)
    horizon = min(t.max_dom() for t in trajs.values())
    result = replay(trajs, scenario, horizon)
    grid = [t for t in trace.grid if t <= horizon]
    out = []
    for link, lr in result.links.items():
        lat = scenario.topology.links[link].latency
        replayed = {"beta": lr.occupancies(grid), "gamma": [in_flight(lr, t, lat) for t in grid]}
        for name, counts in replayed.items():
            written = getattr(trace, name)[link]
            out += [(name, t, link, w, r) for t, w, r in zip(grid, written, counts) if w != r]
    return sorted(out, key=lambda d: (d[1], d[2], d[0]))


def test_grid_series_equal_the_replay():
    # The series written to buffers.csv, checked against the frame count at
    # every grid point: 43,416 values over these 12 runs.
    configs = [triangle3(), gearbox_pair()]
    configs += [random_scenario(random.Random(seed)) for seed in range(10)]
    for cfg in configs:
        assert grid_disagreements(cfg.scenario, cfg.controller, 100.0) == []
    # The crossing-ulp defect pinned above, at grid points: node 3's phase is
    # exactly 17.0 at t=6.0. Defining the crossing through ClockTrajectory.eval
    # (the ROADMAP item "One phase function for the engine and the oracle")
    # will turn this list into [].
    assert grid_disagreements(geared_triangle(), triangle3().controller, 100.0) == [
        ("beta", 6.0, (2, 3), 45, 46),
        ("gamma", 6.0, (3, 1), 6, 5),
        ("gamma", 6.0, (3, 2), 3, 2),
        ("beta", 7.0, (3, 1), 62, 61),
        ("gamma", 7.0, (3, 1), 5, 6),
        ("beta", 7.0, (3, 2), 54, 53),
        ("gamma", 7.0, (3, 2), 2, 3),
    ]


def reference_crossings(traj, gearbox, phase_lo, phase_hi):
    """Crossing times of every integer the scaled phase passes in
    (phase_lo, phase_hi], computed per window over every segment."""
    num, den = gearbox.numerator, gearbox.denominator
    lo_floor = floor_of(gearbox)(phase_lo)
    hi_floor = floor_of(gearbox)(phase_hi)
    times = []
    ts, ps = traj.times, traj.phases
    for t0, p0, t1, p1 in zip(ts, ps, ts[1:], ps[1:]):
        m_start = max(math.floor(p0 * num / den), lo_floor) + 1
        m_end = min(math.floor(p1 * num / den), hi_floor)
        dt_dp = (t1 - t0) / (p1 - p0)
        times += [t0 + (m * den / num - p0) * dt_dp for m in range(m_start, m_end + 1)]
    return times


def reference_replay(trajectories, scenario, horizon):
    """The per-link form of ``replay``: three windowed crossing runs per link
    (in flight at time zero, sends, consumes), then the bound scans one event
    at a time over the local ``count``."""
    topo = scenario.topology
    links = {}
    violations = []
    for (a, b) in topo.directed_links():
        link = topo.links[(a, b)]
        g, lat = link.gearbox, link.latency
        th_a, th_b = trajectories[a], trajectories[b]
        preflight = reference_crossings(th_a, g, th_a.eval(-lat), th_a.eval(0.0))
        sends = reference_crossings(th_a, g, th_a.eval(0.0), th_a.eval(horizon))
        lr = LinkReplay(
            initial=scenario.params.beta0[(a, b)],
            send_times=sends,
            arrival_times=[t + lat for t in preflight + sends],
            consume_times=reference_crossings(th_b, g, th_b.eval(0.0), th_b.eval(horizon)),
        )
        links[(a, b)] = lr
        for t in lr.consume_times:
            if count(lr, t) < 0:
                violations.append(FatalEvent("underflow", (a, b), t, count(lr, t)))
                break
        for t in lr.arrival_times:
            if topo.buffer_capacity is None or t > horizon:
                break
            if count(lr, t) > topo.buffer_capacity:
                violations.append(FatalEvent("overflow", (a, b), t, count(lr, t)))
                break
    violations.sort(key=lambda ev: (ev.t, ev.link, ev.kind))
    return links, violations


def replay_horizons(trajectories):
    """The coverage, a knot of node 1 half way there, and a time between that
    knot and the next."""
    cover = min(t.max_dom() for t in trajectories.values())
    times = trajectories[1].times
    i = bisect_right(times, cover / 2)
    return [cover, times[i], (times[i] + times[i + 1]) / 2]


def test_replay_equals_per_link_reference():
    capped = validate(
        dataclasses.replace(geared_triangle().topology, buffer_capacity=80),
        triangle3().scenario.params,
    )
    runs = [(capped, triangle3().controller)]
    for k_p in (0.01, 0.001):
        spec = ControllerSpec(kind="proportional", k_p=k_p)
        scenarios = [triangle3().scenario, gearbox_pair().scenario, geared_triangle()]
        scenarios += [random_scenario(random.Random(seed)).scenario for seed in range(10)]
        runs += [(sc, spec) for sc in scenarios]
    kinds = set()
    for sc, spec in runs:
        trajs = rebuild_trajectories(simulate(sc, spec, 100.0), sc)
        for horizon in replay_horizons(trajs):
            got = replay(trajs, sc, horizon)
            links, violations = reference_replay(trajs, sc, horizon)
            assert got.links.keys() == links.keys()
            for ab, want in links.items():
                lr = got.links[ab]
                assert lr.initial == want.initial
                for name in ("send_times", "arrival_times", "consume_times"):
                    assert list(map(float.hex, getattr(lr, name))) == list(
                        map(float.hex, getattr(want, name))
                    ), (ab, name, horizon)
            assert got.violations == violations
            kinds |= {ev.kind for ev in violations}
    # the capped run overflows, and some random runs underflow
    assert kinds == {"overflow", "underflow"}


def test_received_count_matches_oracle_arrivals():
    # rho over (s, t] must equal the number of replayed arrival events there
    cfg = triangle3()
    sc = cfg.scenario
    state = run_state(sc, cfg.controller, 40.0)
    result = replay(state.trajectories, sc, 40.0)
    rng = random.Random(23)
    for (a, b) in sc.topology.directed_links():
        link = sc.topology.links[(a, b)]
        lat, g, traj = link.latency, link.gearbox, state.trajectories[a]
        lr = result.links[(a, b)]
        arrivals = lr.arrival_times
        assert arrivals == sorted(arrivals)
        # arrivals are sends shifted by the latency
        assert arrivals[-len(lr.send_times):] == [s + lat for s in lr.send_times]
        for _ in range(50):
            s = rng.uniform(0.0, 38.0)
            t = rng.uniform(s, 39.0)
            counted = bisect_right(arrivals, t) - bisect_right(arrivals, s)
            # the frames sent over (s - lat, t - lat]
            sent = floor_of(g)(traj.eval(t - lat)) - floor_of(g)(traj.eval(s - lat))
            assert counted == sent


@st.composite
def small_scenarios(draw):
    """2-4 node connected scenarios with varied latencies and frequencies."""
    n = draw(st.integers(2, 4))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    if n >= 3 and draw(st.booleans()):
        edges.add((1, n))
    links = {}
    beta0 = {}
    for a, b in sorted(edges):
        links[(a, b)] = Link(latency=draw(st.floats(0.5, 2.0)))
        links[(b, a)] = Link(latency=draw(st.floats(0.5, 2.0)))
        beta0[(a, b)] = draw(st.integers(5, 60))
        beta0[(b, a)] = draw(st.integers(5, 60))
    omega_u = tuple(draw(st.floats(0.8, 2.2)) for _ in range(n))
    theta0 = tuple(draw(st.floats(0.05, 0.95)) for _ in range(n))
    scenario = validate(
        Topology(n_nodes=n, links=links),
        SystemParams(
            p=10, d=2, omega_min=0.1, epoch=-23.0,
            theta0=theta0, omega_u=omega_u,
            omega_init1=omega_u, omega_init2=omega_u, beta0=beta0,
        ),
    )
    controller = draw(
        st.sampled_from(
            [ControllerSpec(kind="zero"), ControllerSpec(kind="proportional", k_p=0.01)]
        )
    )
    return scenario, controller


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_scenarios())
def test_equivalence_property_on_small_scenarios(drawn):
    scenario, controller = drawn
    report = verify_scenario(scenario, controller, 30.0)
    assert report.ok, report.mismatches[:3]


def test_heterogeneous_latency_equivalence():
    links = {
        (1, 2): Link(latency=0.7),
        (2, 1): Link(latency=2.3),
        (2, 3): Link(latency=1.9),
        (3, 2): Link(latency=0.5),
    }
    sc = validate(
        Topology(n_nodes=3, links=links),
        SystemParams(
            p=10,
            d=2,
            omega_min=0.1,
            epoch=-24.0,
            theta0=(0.3, 0.6, 0.2),
            omega_u=(1.2, 0.95, 1.7),
            omega_init1=(1.2, 0.95, 1.7),
            omega_init2=(1.2, 0.95, 1.7),
            beta0={(1, 2): 30, (2, 1): 45, (2, 3): 25, (3, 2): 60},
        ),
    )
    report = verify_scenario(sc, ControllerSpec(kind="proportional", k_p=0.01), 60.0)
    assert report.ok
