"""Engine tests: frame counters, initialization, the loop, and its invariants."""

import copy
import dataclasses
import heapq
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from afmsim.controllers import ControllerSpec, make_controllers
from afmsim.scenarios import gearbox_pair, random_scenario, triangle3
from afmsim.engine import (
    buffer_occupancy,
    build_trace,
    compute_lambdas,
    frames_received,
    frames_sent,
    init_state,
    link_occupancy,
    measure,
    scaled_floor,
    scaled_floors,
    select_node,
    simulate,
    step,
)
from afmsim.trajectory import AdmissibilityError, ClockTrajectory, DomainError

from conftest import relabeled, tied_triangle, two_node_scenario


def line(slope, intercept, t_lo=-30.0, t_hi=30.0):
    """Straight-line trajectory theta(t) = intercept + slope * t."""
    return ClockTrajectory(
        [(t_lo, intercept + slope * t_lo), (t_hi, intercept + slope * t_hi)]
    )


# -- floors --------------------------------------------------------------------

@pytest.mark.parametrize(
    "gearbox", [1, Fraction(2), Fraction(3, 2), Fraction(1, 2), Fraction(2, 3), Fraction(7, 5)]
)
def test_scaled_floors_agree_with_scaled_floor(gearbox):
    rng = random.Random(3)
    phases = [-7.0, -2.5, -1.0, -0.0, 0.0, 1.0, 3.0, 2.0 / 3.0, 4.0 / 3.0, 1e15 + 1.0]
    for m in range(-12, 13):
        # integers and one step either side, unscaled and scaled back
        for x in (float(m), m * gearbox.denominator / gearbox.numerator):
            phases += [math.nextafter(x, -math.inf), float(x), math.nextafter(x, math.inf)]
    phases += [rng.uniform(-100.0, 100.0) for _ in range(500)]
    assert scaled_floors(gearbox, phases) == [scaled_floor(gearbox, p) for p in phases]
    assert scaled_floors(gearbox, []) == []


# -- frame counters ------------------------------------------------------------

def test_frames_sent_unit_slope():
    assert frames_sent(line(1.0, 0.0), 0.0, 5.5) == 5


def test_frames_sent_empty_interval():
    traj = line(1.3, 0.7)
    assert frames_sent(traj, 3.3, 3.3) == 0


def test_frames_sent_offset_slope():
    # theta(t) = 0.1 + 1.4 t over (0, 10]: floor(14.1) - floor(0.1) = 14
    assert frames_sent(line(1.4, 0.1), 0.0, 10.0) == 14


def test_frames_sent_rejects_reversed_interval():
    with pytest.raises(ValueError):
        frames_sent(line(1.0, 0.0), 1.0, 0.0)


def test_frames_received_is_delayed_send_count():
    traj = line(1.7, 0.3)
    for s, t, lat in ((0.0, 7.0, 1.0), (2.5, 9.25, 2.25)):
        assert frames_received(traj, s, t, lat) == frames_sent(traj, s - lat, t - lat)


def test_link_occupancy_examples():
    assert link_occupancy(line(1.0, 0.5), 3.0, 1.0) == 1
    assert link_occupancy(line(2.0, 0.1), 2.0, 1.0) == 2


def test_link_occupancy_nonnegative_by_monotonicity():
    traj = line(0.31, 0.17)
    for t in (0.0, 1.1, 5.7, 20.0):
        assert link_occupancy(traj, t, 2.5) >= 0


def test_counters_out_of_domain():
    traj = line(1.0, 0.0, t_lo=0.0, t_hi=10.0)
    with pytest.raises(DomainError):
        link_occupancy(traj, 0.5, 1.0)


def test_buffer_occupancy_identical_clocks_is_constant():
    a, b = line(1.0, 0.5), line(1.0, 0.5)
    lam = 8
    values = {buffer_occupancy(a, b, lam, 1.0, t) for t in (0.2, 1.3, 4.9, 7.7)}
    assert values == {7}


# -- initialization --------------------------------------------------------------

def test_lambda_reference_triangle(triangle_cfg):
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(triangle_cfg.controller, 3))
    # hand arithmetic: 50 - floor(0.1 - omega_u_src) + floor(0.1)
    assert state.lam == {
        (1, 2): 51, (1, 3): 51,
        (2, 1): 52, (2, 3): 52,
        (3, 1): 52, (3, 2): 52,
    }


def test_lambda_two_identical_nodes(zero_spec):
    sc = two_node_scenario()
    state = init_state(sc, make_controllers(zero_spec, 2))
    # 7 - floor(-0.5) + floor(0.5) = 7 + 1 + 0
    assert state.lam == {(1, 2): 8, (2, 1): 8}


def test_initial_conditions_shape(triangle_cfg):
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(triangle_cfg.controller, 3))
    for i in (1, 2, 3):
        traj = state.trajectories[i]
        assert len(traj.times) == 3
        assert traj.times[0] == sc.params.epoch
        assert traj.eval(0.0) == sc.params.theta0[i - 1]
        w1 = sc.params.omega_init1[i - 1]
        assert traj.max_dom() == sc.params.d / w1
        assert state.steps[i] == 0


def test_beta_at_zero_equals_beta0(triangle_cfg, zero_spec):
    for sc, spec in (
        (triangle_cfg.scenario, triangle_cfg.controller),
        (two_node_scenario(omega_u=(1.3, 0.9), theta0=(0.25, 0.75), beta0=11), zero_spec),
    ):
        state = init_state(sc, make_controllers(spec, sc.topology.n_nodes))
        for (a, b) in sc.topology.directed_links():
            link = sc.topology.links[(a, b)]
            occ = buffer_occupancy(
                state.trajectories[a], state.trajectories[b],
                state.lam[(a, b)], link.latency, 0.0, link.gearbox,
            )
            assert occ == sc.params.beta0[(a, b)]


def test_lambda_recomputation_matches(triangle_cfg):
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(triangle_cfg.controller, 3))
    assert compute_lambdas(sc, state.trajectories) == state.lam


def test_init_state_requires_one_controller_per_node(triangle_cfg):
    with pytest.raises(ValueError):
        init_state(triangle_cfg.scenario, make_controllers(triangle_cfg.controller, 2))


# -- measurement -----------------------------------------------------------------

def test_measure_ordering_and_values(triangle_cfg):
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(triangle_cfg.controller, 3))
    y = measure(state, 1, 0.0)
    assert y == ((2, 50), (3, 50))


# -- stepping --------------------------------------------------------------------

def test_first_step_selects_fastest_initial_clock(triangle_cfg):
    # domains end at d/omega_init1: 1.818, 1.428, 1.0 -> node 3
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(triangle_cfg.controller, 3))
    assert select_node(state) == 3
    rec = step(state)
    assert rec.node == 3 and rec.step == 0


def test_zero_controller_extends_by_p_over_omega(zero_spec):
    sc = two_node_scenario(omega_u=(1.0, 1.0))
    state = init_state(sc, make_controllers(zero_spec, 2))
    for _ in range(6):
        before = {i: state.trajectories[i].max_dom() for i in (1, 2)}
        rec = step(state)
        after = {i: state.trajectories[i].max_dom() for i in (1, 2)}
        grown = rec.node
        assert after[grown] - before[grown] == pytest.approx(10.0 / 1.0, rel=1e-15)
        other = 3 - grown
        assert after[other] == before[other]
        assert rec.correction == 0.0


def test_step_grows_exactly_one_domain(triangle_cfg):
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(triangle_cfg.controller, 3))
    for _ in range(10):
        before = {i: state.trajectories[i].max_dom() for i in (1, 2, 3)}
        rec = step(state)
        after = {i: state.trajectories[i].max_dom() for i in (1, 2, 3)}
        assert after[rec.node] - before[rec.node] == pytest.approx(
            sc.params.p / rec.frequency, rel=1e-15
        )
        for other in set((1, 2, 3)) - {rec.node}:
            assert after[other] == before[other]


def test_admissibility_halt_on_first_violating_step():
    sc = two_node_scenario(omega_u=(1.1, 1.1))
    # forced correction of -2 drives frequency to -0.9 <= 0.1
    spec = ControllerSpec(kind="zero", clamp=(-2.0, -2.0))
    state = init_state(sc, make_controllers(spec, 2))  # unvetted: no static check
    with pytest.raises(AdmissibilityError) as err:
        step(state)
    assert err.value.step == 0
    assert err.value.node is not None
    assert err.value.frequency == pytest.approx(-0.9)


@pytest.mark.parametrize(
    "output, error",
    [(-5.0, AdmissibilityError), (math.nan, AdmissibilityError), (1e300, ValueError)],
    ids=["below-floor", "nan", "knot-time-stalls"],
)
def test_halted_step_leaves_controllers_unchanged(triangle_cfg, output, error):
    # A counting controller; its correction either sinks the frequency to or
    # below omega_min, or is so large that the next knot time does not advance.
    spec = ControllerSpec(
        kind="custom",
        init_state=0,
        state_fn=lambda count, y: count + 1,
        output_fn=lambda count, y: output,
    )
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(spec, sc.topology.n_nodes))  # unvetted
    queue = list(state.queue)
    with pytest.raises(error):
        step(state)
    assert state.queue == queue
    assert {i: c.state for i, c in state.controllers.items()} == {1: 0, 2: 0, 3: 0}
    assert state.steps == {1: 0, 2: 0, 3: 0}
    assert state.samples == []


def test_static_admissibility_check_blocks_run():
    sc = two_node_scenario(omega_u=(1.1, 1.1))
    spec = ControllerSpec(kind="zero", clamp=(-2.0, -2.0))
    with pytest.raises(AdmissibilityError):
        simulate(sc, spec, 50.0)


# -- full runs -------------------------------------------------------------------

def test_run_covers_t_max(triangle_cfg):
    trace = simulate(triangle_cfg.scenario, triangle_cfg.controller, 100.0)
    for i in (1, 2, 3):
        assert trace.knots[i][-1][0] >= 100.0
    assert trace.grid[0] == 0.0
    assert trace.grid[-1] == 100.0


def test_schedule_consistency(triangle_cfg):
    sc = triangle_cfg.scenario
    trace = simulate(sc, triangle_cfg.controller, 150.0)
    trajs = {i: ClockTrajectory(trace.knots[i], sc.params.omega_min) for i in (1, 2, 3)}
    p, d = sc.params.p, sc.params.d
    for rec in trace.samples:
        th0 = sc.params.theta0[rec.node - 1]
        assert abs(trajs[rec.node].eval(rec.t_sample) - (th0 + rec.step * p)) <= 1e-9
        assert abs(trajs[rec.node].eval(rec.t_apply) - (th0 + rec.step * p + d)) <= 1e-9


def test_one_knot_per_step_piecewise_constant_frequency(triangle_cfg):
    trace = simulate(triangle_cfg.scenario, triangle_cfg.controller, 100.0)
    per_node = {i: 0 for i in (1, 2, 3)}
    for rec in trace.samples:
        per_node[rec.node] += 1
    for i in (1, 2, 3):
        assert len(trace.knots[i]) == 3 + per_node[i]


def test_recorded_frequency_matches_trajectory_slope(triangle_cfg):
    sc = triangle_cfg.scenario
    trace = simulate(sc, triangle_cfg.controller, 80.0)
    trajs = {i: ClockTrajectory(trace.knots[i], sc.params.omega_min) for i in (1, 2, 3)}
    for rec in trace.samples:
        # slope immediately after actuation is the recorded frequency
        assert trajs[rec.node].slope_at(rec.t_apply) == pytest.approx(rec.frequency, rel=1e-15)


def test_conservation_and_lambda_invariance_at_random_times(triangle_cfg):
    sc = triangle_cfg.scenario
    ctrls = make_controllers(triangle_cfg.controller, 3)
    state = init_state(sc, ctrls)
    while min(t.max_dom() for t in state.trajectories.values()) < 120.0:
        step(state)
    rng = random.Random(99)
    for (a, b) in sc.topology.edges():
        lat_ab = sc.topology.links[(a, b)].latency
        lat_ba = sc.topology.links[(b, a)].latency
        for _ in range(200):
            t = rng.uniform(0.0, 120.0)
            b_ab = buffer_occupancy(state.trajectories[a], state.trajectories[b], state.lam[(a, b)], lat_ab, t)
            b_ba = buffer_occupancy(state.trajectories[b], state.trajectories[a], state.lam[(b, a)], lat_ba, t)
            g_ab = link_occupancy(state.trajectories[a], t, lat_ab)
            g_ba = link_occupancy(state.trajectories[b], t, lat_ba)
            assert b_ab + g_ab + b_ba + g_ba == state.lam[(a, b)] + state.lam[(b, a)]
            # direct lambda recomputation at t
            recomputed = (
                b_ab
                - scaled_floor(1, state.trajectories[a].eval(t - lat_ab))
                + scaled_floor(1, state.trajectories[b].eval(t))
            )
            assert recomputed == state.lam[(a, b)]


def test_underflow_recorded_not_raised(zero_spec):
    # frequency mismatch with no control: the fast node drains its buffer
    sc = two_node_scenario(omega_u=(1.0, 2.0), beta0=3)
    trace = simulate(sc, zero_spec, 40.0)
    assert trace.fatal
    kinds = {(ev.kind, ev.link) for ev in trace.fatal_events}
    assert ("underflow", (1, 2)) in kinds
    assert trace.first_fatal.occupancy < 0
    # run still covers the horizon
    assert trace.grid[-1] == 40.0


def test_overflow_recorded_with_bounded_capacity(zero_spec):
    sc = two_node_scenario(omega_u=(1.0, 2.0), beta0=3, capacity=5)
    trace = simulate(sc, zero_spec, 40.0)
    kinds = {(ev.kind, ev.link) for ev in trace.fatal_events}
    assert ("overflow", (2, 1)) in kinds  # slow node's buffer fills


def _snapshot(state):
    """Every ``SystemState`` field as a detached, comparable value."""
    assert [f.name for f in dataclasses.fields(state)] == [
        "scenario", "trajectories", "controllers", "lam", "steps", "incoming", "queue",
        "samples",
    ]
    return (
        state.scenario,
        {
            i: [copy.copy(getattr(traj, name)) for name in ClockTrajectory.__slots__]
            for i, traj in state.trajectories.items()
        },
        {i: (c.spec, c.state) for i, c in state.controllers.items()},
        dict(state.lam),
        dict(state.steps),
        dict(state.incoming),
        list(state.queue),
        list(state.samples),
    )


def test_build_trace_leaves_state_unchanged(zero_spec):
    sc = two_node_scenario(omega_u=(1.0, 2.0), beta0=3, capacity=5)
    state = init_state(sc, make_controllers(zero_spec, 2))
    while state.trajectories[select_node(state)].max_dom() < 40.0:
        step(state)
    before = _snapshot(state)
    first = build_trace(state, 40.0, 0.5)
    second = build_trace(state, 40.0, 0.5)
    assert first.fatal_events and first.fatal_events == second.fatal_events
    assert _snapshot(state) == before


def test_tie_break_rules_agree(triangle_cfg):
    # Smallest id first on reversed labels is largest id first on the originals.
    sc = triangle_cfg.scenario
    rev = {1: 3, 2: 2, 3: 1}
    a = simulate(sc, triangle_cfg.controller, 60.0)
    b = simulate(relabeled(sc, rev), triangle_cfg.controller, 60.0)
    assert a.knots == {i: b.knots[rev[i]] for i in (1, 2, 3)}


@pytest.mark.parametrize(
    "make_cfg",
    [tied_triangle, gearbox_pair]
    + [lambda seed=seed: random_scenario(random.Random(seed)) for seed in (1, 2, 3)],
    ids=["tied_triangle", "gearbox_pair", "random1", "random2", "random3"],
)
def test_queue_tracks_trajectory_ends(make_cfg):
    cfg = make_cfg()
    state = init_state(cfg.scenario, make_controllers(cfg.controller, cfg.scenario.topology.n_nodes))
    trajectories = state.trajectories
    for _ in range(300):
        step(state)
        queue = state.queue
        assert all(queue[(k - 1) // 2] <= queue[k] for k in range(1, len(queue)))
        assert sorted(queue) == sorted((traj.max_dom(), i) for i, traj in trajectories.items())
        # The reference rule the heap replaces: a scan over every node.
        assert select_node(state) == min(trajectories, key=lambda i: (trajectories[i].max_dom(), i))


def test_omega_series_right_continuous(triangle_cfg):
    sc = triangle_cfg.scenario
    trace = simulate(sc, triangle_cfg.controller, 30.0)
    trajs = {i: ClockTrajectory(trace.knots[i], sc.params.omega_min) for i in (1, 2, 3)}
    for i in (1, 2, 3):
        for idx, t in enumerate(trace.grid):
            assert trace.omega[i][idx] == trajs[i].slope_at(t)


@pytest.mark.parametrize(
    "make_cfg",
    [triangle3, gearbox_pair]
    + [lambda seed=seed: random_scenario(random.Random(seed)) for seed in (1, 2, 3)],
    ids=["triangle3", "gearbox_pair", "random1", "random2", "random3"],
)
def test_resampled_series_match_occupancy_functions(make_cfg):
    cfg = make_cfg()
    sc = cfg.scenario
    trace = simulate(sc, cfg.controller, 60.0)
    trajs = {i: ClockTrajectory(trace.knots[i], sc.params.omega_min) for i in sc.topology.nodes()}
    lam = compute_lambdas(sc, trajs)
    for (a, b), link in sc.topology.links.items():
        for idx, t in enumerate(trace.grid):
            assert trace.beta[(a, b)][idx] == buffer_occupancy(
                trajs[a], trajs[b], lam[(a, b)], link.latency, t, link.gearbox
            )
            assert trace.gamma[(a, b)][idx] == link_occupancy(
                trajs[a], t, link.latency, link.gearbox
            )


def test_simulate_argument_validation(triangle_cfg):
    for bad in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_max"):
            simulate(triangle_cfg.scenario, triangle_cfg.controller, bad)
        with pytest.raises(ValueError, match="grid_dt"):
            simulate(triangle_cfg.scenario, triangle_cfg.controller, 10.0, grid_dt=bad)


# -- any ready order -------------------------------------------------------------

def is_ready(state, i):
    """Whether node i's next step reads each in-neighbour inside its domain:
    the step samples at ``t_sample`` and reads neighbour j at
    ``t_sample - latency(j, i)``."""
    traj = state.trajectories[i]
    t_sample = traj.inverse(traj.eval(traj.max_dom()) - state.scenario.params.d)
    return all(
        t_sample - latency <= state.trajectories[j].max_dom()
        for j, _, latency, _ in state.incoming[i]
    )


def put_on_top(state, i):
    """Move node i's queue entry to the top, where ``step`` takes it from."""
    k = next(k for k, (_, node) in enumerate(state.queue) if node == i)
    state.queue[0], state.queue[k] = state.queue[k], state.queue[0]


def run_in_random_ready_order(cfg, t_max, rng):
    """Step a node drawn at random from the ready nodes still below ``t_max``
    until none is left; returns the state and the count of steps that had a
    choice."""
    sc = cfg.scenario
    state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
    choices = 0
    while ready := sorted(i for end, i in state.queue if end < t_max and is_ready(state, i)):
        # Least-advanced-first is one ready order: its pick is always ready.
        assert select_node(state) in ready
        choices += len(ready) > 1
        put_on_top(state, rng.choice(ready))
        step(state)
        heapq.heapify(state.queue)
    assert all(end >= t_max for end, _ in state.queue)
    return state, choices


def assert_same_solution(cfg, state, t_max):
    trace = simulate(cfg.scenario, cfg.controller, t_max)
    assert {i: traj.knots() for i, traj in state.trajectories.items()} == trace.knots
    by_step = lambda rec: (rec.node, rec.step)
    assert sorted(state.samples, key=by_step) == sorted(trace.samples, key=by_step)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_any_ready_order_gives_the_same_solution(triangle_cfg, seed):
    state, choices = run_in_random_ready_order(triangle_cfg, 200.0, random.Random(seed))
    assert choices > len(state.samples) // 2
    assert_same_solution(triangle_cfg, state, 200.0)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_any_ready_order_property(scenario_seed, order_seed):
    cfg = random_scenario(random.Random(scenario_seed))
    state, _ = run_in_random_ready_order(cfg, 100.0, random.Random(order_seed))
    assert_same_solution(cfg, state, 100.0)


def test_step_on_a_node_that_is_not_ready_changes_nothing(triangle_cfg):
    integrator = ControllerSpec(
        kind="custom",
        init_state=0.0,
        state_fn=lambda xi, y: xi + sum(occ for _, occ in y),
        output_fn=lambda xi, y: 1e-4 * xi,
        clamp=(-0.05, 5.0),
    )
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(integrator, 3))
    while not (waiting := [i for i in sc.topology.nodes() if not is_ready(state, i)]):
        step(state)
    put_on_top(state, waiting[0])
    before = _snapshot(state)
    with pytest.raises(DomainError):
        step(state)
    assert _snapshot(state) == before
    assert any(c.state != 0.0 for c in state.controllers.values())
