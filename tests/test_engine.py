"""Engine tests: frame counters, initialization, the loop, and its invariants."""

import copy
import dataclasses
import heapq
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from afmsim import engine
from afmsim.config import load_config
from afmsim.controllers import ControllerSpec, make_controllers
from afmsim.scenarios import gearbox_pair, random_scenario, triangle3
from afmsim.engine import (
    SampleRecord,
    build_trace,
    compute_lambdas,
    init_state,
    occupancy_series,
    select_node,
    simulate,
    step,
)
from afmsim.phase import floor_of, scaled_floors, tick_times
from afmsim.topology import Link, SystemParams, Topology, ValidationError, validate
from afmsim.trajectory import AdmissibilityError, ClockTrajectory, DomainError

from conftest import (
    closed_form_beta,
    closed_form_gamma,
    geared_triangle,
    relabeled,
    slope_at,
    tied_triangle,
    two_node_scenario,
)


def line(slope, intercept, t_lo=-30.0, t_hi=30.0):
    """Straight-line trajectory theta(t) = intercept + slope * t."""
    return ClockTrajectory(
        [(t_lo, intercept + slope * t_lo), (t_hi, intercept + slope * t_hi)]
    )


# -- floors --------------------------------------------------------------------

@pytest.mark.parametrize(
    "gearbox",
    [1, Fraction(2), Fraction(3, 2), Fraction(1, 2), Fraction(2, 3), Fraction(7, 5), Fraction(1)],
)
def test_scaled_floors_agree_with_scaled_floor(gearbox, zero_spec):
    rng = random.Random(3)
    phases = [-7.0, -2.5, -1.0, -0.0, 0.0, 1.0, 3.0, 2.0 / 3.0, 4.0 / 3.0, 1e15 + 1.0]
    for m in range(-12, 13):
        # integers and one step either side, unscaled and scaled back
        for x in (float(m), m * gearbox.denominator / gearbox.numerator):
            phases += [math.nextafter(x, -math.inf), float(x), math.nextafter(x, math.inf)]
    phases += [rng.uniform(-100.0, 100.0) for _ in range(500)]
    floors = [floor_of(gearbox)(p) for p in phases]
    assert scaled_floors(gearbox, phases) == floors
    assert scaled_floors(gearbox, []) == []
    # The floor init_state looks up for the link gives floor_of bit for bit,
    # and so does the floor of each equal gearbox (the int and the Fraction
    # of one whole number, such as 1 and Fraction(1), or 2 and Fraction(2)).
    sc = two_node_scenario(theta0=(0.3, 0.3))
    links = {
        ab: dataclasses.replace(lk, gearbox=Fraction(gearbox))
        for ab, lk in sc.topology.links.items()
    }
    sc = validate(dataclasses.replace(sc.topology, links=links), sc.params)
    link_floor = init_state(sc, make_controllers(zero_spec, 2)).incoming[2][0][3]
    assert list(map(link_floor, phases)) == floors
    twins = [Fraction(gearbox)] + ([gearbox.numerator] if gearbox.denominator == 1 else [])
    assert all(list(map(floor_of(g), phases)) == floors for g in [gearbox, *twins])
    assert (link_floor is math.floor) == (gearbox == 1)
    traj = ClockTrajectory(
        [(-30.0, -29.7), (0.0, 0.25), (5.0, math.nextafter(6.0, 0.0)), (9.0, 9.0), (14.0, 16.5)]
    )
    m0, times = tick_times(traj, gearbox, -30.0)
    for twin in twins:
        assert scaled_floors(twin, phases) == [floor_of(twin)(p) for p in phases] == floors
        m0_twin, times_twin = tick_times(traj, twin, -30.0)
        assert m0_twin == m0
        assert list(map(float.hex, times_twin)) == list(map(float.hex, times))


# -- frame counters ------------------------------------------------------------

def series_on_two_nodes(traj_1, traj_2, ts, latency=1.0, lam=0):
    """``occupancy_series`` at the times ``ts`` on the two-node ring with these
    trajectories and link constants, as ``beta`` and ``gamma`` by link."""
    sc = two_node_scenario(latency=latency)
    lams = dict.fromkeys(sc.topology.links, lam)
    _, _, links = occupancy_series(sc, {1: traj_1, 2: traj_2}, lams, ts)
    beta, gamma = {}, {}
    for link, beta_ab, gamma_ab in links:
        beta[link], gamma[link] = beta_ab, list(gamma_ab)
    return beta, gamma


def test_link_occupancy_examples():
    _, gamma = series_on_two_nodes(line(1.0, 0.5), line(2.0, 0.1), [2.0, 3.0])
    assert gamma[(1, 2)][1] == 1  # at t=3
    assert gamma[(2, 1)][0] == 2  # at t=2


def test_link_occupancy_nonnegative_by_monotonicity():
    traj = line(0.31, 0.17)
    _, gamma = series_on_two_nodes(traj, traj, [0.0, 1.1, 5.7, 20.0], latency=2.5)
    assert all(occ >= 0 for series in gamma.values() for occ in series)


def test_counters_out_of_domain():
    traj = line(1.0, 0.0, t_lo=0.0, t_hi=10.0)
    with pytest.raises(DomainError):
        series_on_two_nodes(traj, traj, [0.5])


@pytest.mark.parametrize(
    "ts, error",
    [
        ([0.0, math.nan, 1.0], DomainError),
        ([math.nan], DomainError),
        ([2.0, 1.0], ValueError),
        ([0.0, 1.0, 0.5], ValueError),
        # in every node's domain, but one latency back is before the first knot
        ([-29.5, 0.0], DomainError),
    ],
    ids=["nan", "lone_nan", "descending", "one_step_back", "shifted_before_epoch"],
)
def test_occupancy_series_errors(ts, error):
    # The node sweeps check the list; a source is checked at its shifted ends.
    traj = line(1.0, 0.0)
    with pytest.raises(ValueError) as caught:
        series_on_two_nodes(traj, traj, ts)
    assert type(caught.value) is error


def test_buffer_occupancy_identical_clocks_is_constant():
    a, b = line(1.0, 0.5), line(1.0, 0.5)
    beta, _ = series_on_two_nodes(a, b, [0.2, 1.3, 4.9, 7.7], lam=8)
    assert set(beta[(1, 2)]) == set(beta[(2, 1)]) == {7}


def star_scenario():
    """Node 1 feeds 2 and 3 over like links (latency 1, unit gearbox), 4 over
    latency 2.5, and 5 over latency 2.5 geared 3/2; each link has its reverse."""
    out = {2: Link(1.0), 3: Link(1.0), 4: Link(2.5), 5: Link(2.5, Fraction(3, 2))}
    links = {}
    for b, lk in out.items():
        links[(1, b)] = links[(b, 1)] = lk
    n = 5
    return validate(
        Topology(n_nodes=n, links=links),
        SystemParams(
            p=10, d=2, omega_min=0.1, epoch=-25.0, theta0=(0.5,) * n,
            omega_u=(1.0,) * n, omega_init1=(1.0,) * n, omega_init2=(1.0,) * n,
            beta0=dict.fromkeys(links, 7),
        ),
    )


def test_occupancy_series_shares_sends_only_between_like_links():
    # Node 1's out-links come one after another, and a link whose latency or
    # gearbox differs from the one before it must not reuse that link's sends.
    sc = star_scenario()
    trajs = {i: line(0.9 + 0.07 * i, 0.3 * i) for i in sc.topology.nodes()}
    lam = {ab: 3 * ab[0] - ab[1] for ab in sc.topology.links}
    ts = [0.37 * k for k in range(60)]
    _, _, series = occupancy_series(sc, trajs, lam, ts)
    for (a, b), beta, gamma in series:
        lk, src = sc.topology.links[(a, b)], trajs[a]
        assert beta == [
            closed_form_beta(src, trajs[b], lam[(a, b)], lk.latency, t, lk.gearbox) for t in ts
        ], (a, b)
        gamma_ab = [closed_form_gamma(src, t, lk.latency, lk.gearbox) for t in ts]
        assert list(gamma) == gamma_ab, (a, b)


def test_occupancy_series_checks_its_times_once(monkeypatch):
    # One order check per call, not one per node sweep, source or link.
    sc = star_scenario()
    trajs = {i: line(0.9 + 0.07 * i, 0.3 * i) for i in sc.topology.nodes()}
    lam = dict.fromkeys(sc.topology.links, 0)
    calls = []
    check = engine.check_times
    monkeypatch.setattr(engine, "check_times", lambda ts: calls.append(ts) or check(ts))
    ts = [0.37 * k for k in range(60)]
    for n in (1, 2):
        _, _, series = occupancy_series(sc, trajs, lam, ts)
        for _, _, gamma in series:
            list(gamma)
        assert calls == [ts] * n


def wiggly(seed, t_lo=-30.0, t_hi=45.0):
    """A trajectory over [t_lo, t_hi] or a little more, with knots at irregular
    times and slopes between 0.6 and 2.4."""
    rng = random.Random(seed)
    t, phase = t_lo, rng.uniform(0.1, 0.9)
    knots = [(t, phase)]
    while t < t_hi:
        dt = rng.uniform(0.05, 1.5)
        t, phase = t + dt, phase + dt * rng.uniform(0.6, 2.4)
        knots.append((t, phase))
    return ClockTrajectory(knots)


def fan_scenario(latency):
    """Node 1 feeds 2 over a unit gearbox and 3 over 3/2, and 2 feeds 3 over
    1/2, each link with its reverse and all at one latency."""
    gears = {(1, 2): 1, (1, 3): Fraction(3, 2), (2, 3): Fraction(1, 2)}
    links = {}
    for (a, b), g in gears.items():
        links[(a, b)] = links[(b, a)] = Link(latency, g)
    n = 3
    return validate(
        Topology(n_nodes=n, links=links),
        SystemParams(
            p=10, d=2, omega_min=0.1, epoch=-25.0, theta0=(0.3, 0.4, 0.6),
            omega_u=(1.0,) * n, omega_init1=(1.0,) * n, omega_init2=(1.0,) * n,
            beta0=dict.fromkeys(links, 7),
        ),
    )


@pytest.mark.parametrize(
    "ts, latency, reused",
    [
        ([0.5 * k for k in range(80)], 1.0, 2),
        ([0.5 * (k // 2) for k in range(160)], 1.5, 6),  # each time twice
        ([0.25 * k for k in range(160)], 2.5, 10),
        ([3.0 + 0.5 * k for k in range(60)], 1.0, 2),
        # Near misses, swept whole: 3 * 0.1 is not 0.3, and 2 * 0.1 is 0.2
        # but 3 * 0.1 - 0.2 is not 0.1; the steps of 1/3 do not add up either.
        ([0.1 * k for k in range(300)], 0.3, None),
        ([0.1 * k for k in range(300)], 0.2, None),
        ([0.1 * k for k in range(300)], 1.0, None),
        ([k * (1 / 3) for k in range(120)], 1.0, None),
        ([0.5 * k for k in range(2)], 1.0, None),  # the latency outlasts the list
    ],
    ids=[
        "half_latency_2_steps", "half_repeated", "quarter_latency_10_steps", "half_from_3",
        "tenth_latency_0.3", "tenth_latency_0.2", "tenth_latency_1", "third_latency_1",
        "shorter_than_latency",
    ],
)
def test_occupancy_series_reuses_the_source_floors_on_whole_step_latencies(
    monkeypatch, ts, latency, reused
):
    # Where ts less the latency is ts itself from index k on, each source is
    # swept only over its first k times; the rest of its sends are its own
    # floors. Either way the counts are the closed form's at every time.
    sc = fan_scenario(latency)
    trajs = {i: wiggly(i) for i in sc.topology.nodes()}
    lam = {ab: 3 * ab[0] - ab[1] for ab in sc.topology.links}
    swept = []
    sweep = engine.sweep_eval
    monkeypatch.setattr(
        engine, "sweep_eval", lambda traj, ts, shift: swept.append(len(ts)) or sweep(traj, ts, shift)
    )
    _, _, series = occupancy_series(sc, trajs, lam, ts)
    for (a, b), beta, gamma in series:
        lk, src = sc.topology.links[(a, b)], trajs[a]
        assert beta == [
            closed_form_beta(src, trajs[b], lam[(a, b)], latency, t, lk.gearbox) for t in ts
        ], (a, b)
        assert list(gamma) == [closed_form_gamma(src, t, latency, lk.gearbox) for t in ts], (a, b)
    # One run of links per (source, gearbox), each swept once.
    assert swept == [len(ts) if reused is None else reused] * 6


def test_a_source_before_the_epoch_is_a_domain_error_on_the_reuse_path():
    # The first k shifted times are still swept, so their start is still
    # checked against the source's domain.
    sc = fan_scenario(1.0)
    trajs = {i: wiggly(i, t_lo=-0.5) for i in sc.topology.nodes()}
    lam = dict.fromkeys(sc.topology.links, 0)
    _, _, series = occupancy_series(sc, trajs, lam, [0.5 * k for k in range(20)])
    with pytest.raises(DomainError, match="time -1.0 outside domain"):
        next(series)


def test_a_grid_of_whole_latency_steps_sweeps_each_source_over_its_first_steps(monkeypatch):
    # triangle3's latencies are 1.0 and its grid 0.5, as in the benchmark's
    # tri-run: each of the three sources is swept over two grid times, not
    # the whole grid, and the series are those of every other run.
    cfg = triangle3()
    sc = cfg.scenario
    state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
    while state.queue[0][0] < 60.0:
        step(state)
    swept = []
    sweep = engine.sweep_eval
    monkeypatch.setattr(
        engine, "sweep_eval", lambda traj, ts, shift: swept.append(len(ts)) or sweep(traj, ts, shift)
    )
    trace = build_trace(state, 60.0, 0.5)
    assert len(trace.grid) == 121
    assert swept == [2, 2, 2]
    assert trace == simulate(sc, cfg.controller, 60.0, grid_dt=0.5)


def old_grid(t_max, grid_dt):
    """The output grid as a loop that appends ``k * grid_dt`` while it is at
    most ``t_max``."""
    grid = []
    k = 0
    while (t := k * grid_dt) <= t_max:
        grid.append(t)
        k += 1
    return grid


@pytest.fixture(scope="module")
def triangle_to_101():
    cfg = triangle3()
    sc = cfg.scenario
    state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
    while state.queue[0][0] < 101.0:
        step(state)
    return state


@pytest.mark.parametrize(
    "t_max, grid_dt",
    [
        (1.0, 0.1),
        (1.0, 0.3),
        (1.0, 1 / 3),
        (0.3, 0.1),  # 3 * 0.1 is above 0.3
        (1.7, 0.1),  # 1.7 / 0.1 rounds up to 17, and 17 * 0.1 is above 1.7
        (4.3, 0.1),  # 4.3 / 0.1 rounds down below 43, and 43 * 0.1 is 4.3
        (100.0, 0.1),
        (2.0, 1 / 3),
        (10.0, 0.5),
        (math.nextafter(10.0, 0.0), 0.5),
        (math.nextafter(10.0, math.inf), 0.5),
        (math.nextafter(2.0, 0.0), 1 / 3),
        (math.nextafter(2.0, math.inf), 1 / 3),
        (0.05, 0.1),  # the grid is the time zero alone
        (100.0, 7.0),
    ],
)
def test_the_grid_is_every_step_up_to_t_max(triangle_to_101, t_max, grid_dt):
    grid = build_trace(triangle_to_101, t_max, grid_dt).grid
    assert list(map(float.hex, grid)) == list(map(float.hex, old_grid(t_max, grid_dt)))


def test_check_grid_bounds_the_grid_point_count():
    assert engine.check_grid(10000.0, 0.5) == []
    assert engine.check_grid(math.nextafter(5e7, 0.0), 0.5) == []
    for t_max, grid_dt in ((5e7, 0.5), (100.0, 1e-300), (1e308, 1e-300)):
        (violation,) = engine.check_grid(t_max, grid_dt)
        assert (violation.name, violation.subject) == ("value_out_of_range", "run.output_grid")
        steps = t_max / grid_dt
        assert violation.detail == (
            f"t_max / output_grid = {steps!r} grid points, not below {engine.MAX_GRID_POINTS}"
        )


@pytest.mark.parametrize("t_max, grid_dt", [(100.0, 1e-300), (1e308, 0.5), (2e8, 1.0)])
def test_simulate_rejects_a_grid_no_machine_holds_before_it_runs(
    triangle_cfg, monkeypatch, t_max, grid_dt
):
    # The bound is checked with the other arguments, before the loop: a run
    # that reached build_trace would first step to t_max, then build the grid
    # until memory ran out.
    def no_run(*args):
        raise AssertionError("simulate started the run")

    monkeypatch.setattr(engine, "init_state", no_run)
    with pytest.raises(ValidationError) as caught:
        simulate(triangle_cfg.scenario, triangle_cfg.controller, t_max, grid_dt=grid_dt)
    assert [(v.name, v.subject) for v in caught.value.violations] == [
        ("value_out_of_range", "run.output_grid")
    ]


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
        theta0 = sc.params.theta0[i - 1]
        w2, epoch = sc.params.omega_init2[i - 1], sc.params.epoch
        assert traj.knots()[0] == (epoch, theta0 + w2 * epoch)
        assert traj.phases[-1] == theta0 + sc.params.d


def test_beta_at_zero_equals_beta0(triangle_cfg, zero_spec):
    # gearbox_pair and geared_triangle take the non-unit branch of the floors.
    for sc, spec in (
        (triangle_cfg.scenario, triangle_cfg.controller),
        (two_node_scenario(omega_u=(1.3, 0.9), theta0=(0.25, 0.75), beta0=11), zero_spec),
        (gearbox_pair().scenario, zero_spec),
        (geared_triangle(), triangle_cfg.controller),
    ):
        state = init_state(sc, make_controllers(spec, sc.topology.n_nodes))
        for (a, b) in sc.topology.directed_links():
            link = sc.topology.links[(a, b)]
            occ = closed_form_beta(
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
    # Node 1's first step samples at (or within a few ulps of) t=0.
    while (rec := step(state)).node != 1:
        pass
    y = rec.measurement
    assert y == ((2, 50), (3, 50))


def generator_measure(state, i, t):
    """Node i's measurement at wall time t, as a generator over the in-links
    that floors node i's own phase once per in-link, each with the gearbox of
    the link in the topology: the reference the loop in ``step`` must
    equal."""
    trajectories = state.trajectories
    links = state.scenario.topology.links
    phase_i = trajectories[i].eval(t)
    return tuple(
        (
            j,
            floor_of(links[(j, i)].gearbox)(trajectories[j].eval(t - latency))
            - floor_of(links[(j, i)].gearbox)(phase_i)
            + lam,
        )
        for j, lam, latency, _ in state.incoming[i]
    )


def alternating_gears():
    """Node 4 fed by nodes 1, 2 and 3 through gearboxes 2, 1 and 2, so its
    own floor changes gearbox and changes back within one measurement."""
    edges = [
        {"a": 1, "b": 4, "latency": 1.0, "gearbox_ab": [2, 1]},
        {"a": 2, "b": 4, "latency": 1.5},
        {"a": 3, "b": 4, "latency": 0.5, "gearbox_ab": [2, 1]},
    ]
    params = {
        "p": 10, "d": 2, "omega_min": 0.1, "epoch": -25.0,
        "theta0": [0.1, 0.3, 0.7, 0.45], "omega_u": [1.1, 1.4, 2.0, 1.2], "beta0": 50,
    }
    return load_config(json.dumps({
        "topology": {"n_nodes": 4, "edges": edges},
        "params": params,
        "controller": {"kind": "proportional", "k_p": 0.01},
        "run": {"t_max": 60.0, "output_grid": 0.5},
    }))


@pytest.mark.parametrize(
    "make_cfg",
    [
        triangle3,
        gearbox_pair,
        lambda: dataclasses.replace(triangle3(), scenario=geared_triangle()),
        alternating_gears,
    ]
    + [lambda seed=seed: random_scenario(random.Random(seed)) for seed in range(10)],
    ids=["triangle3", "gearbox_pair", "geared_triangle", "alternating_gears"]
    + [f"random{seed}" for seed in range(10)],
)
def test_measure_equals_the_generator_reference(make_cfg):
    cfg = make_cfg()
    sc = cfg.scenario
    state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
    if make_cfg is alternating_gears:
        # Node 4's in-links floor through gearbox 2, the unit floor and gearbox 2.
        phases = [x for m in range(-8, 9) for x in (math.nextafter(m / 2, -math.inf), m / 2)]
        doubled = [math.floor(2 * p) for p in phases]
        floors = [list(map(f, phases)) for *_, f in state.incoming[4]]
        assert floors == [doubled, list(map(math.floor, phases)), doubled]
        assert floors == [list(map(f, phases)) for f in (floor_of(Fraction(2)), math.floor, floor_of(2))]
    while state.queue[0][0] < 60.0:
        rec = step(state)
        reference = generator_measure(state, rec.node, rec.t_sample)
        assert rec.measurement == reference
        assert type(rec.measurement) is tuple
        assert all(type(j) is int and type(occ) is int for j, occ in rec.measurement)


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


@pytest.mark.parametrize("output", [-5.0, math.nan, 1e300], ids=["below-floor", "nan", "knot-time-stalls"])
def test_halted_step_leaves_controllers_unchanged(triangle_cfg, output):
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
    with pytest.raises(AdmissibilityError) as err:
        step(state)
    assert (err.value.node, err.value.step) == (3, 0)
    assert state.queue == queue
    assert {i: c.state for i, c in state.controllers.items()} == {1: 0, 2: 0, 3: 0}
    # The step counter is the knot count, so no knot was appended.
    assert {i: len(traj.times) for i, traj in state.trajectories.items()} == {1: 3, 2: 3, 3: 3}
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


@pytest.mark.parametrize(
    "make_cfg",
    [triangle3, gearbox_pair, lambda: dataclasses.replace(triangle3(), scenario=geared_triangle())]
    + [lambda seed=seed: random_scenario(random.Random(seed)) for seed in range(10)],
    ids=["triangle3", "gearbox_pair", "geared_triangle"] + [f"random{s}" for s in range(10)],
)
def test_step_index_is_the_knot_count_less_three(make_cfg):
    # No counter beside the knots: a record's step index is the knot count of
    # its node before the step, three initial knots and one per earlier step.
    cfg = make_cfg()
    sc = cfg.scenario
    state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
    steps = {i: [] for i in sc.topology.nodes()}
    while state.queue[0][0] < 60.0:
        rec = step(state)
        assert rec.step == len(state.trajectories[rec.node].times) - 4
        steps[rec.node].append(rec.step)
    for i, ks in steps.items():
        assert ks == list(range(len(ks))), i


def test_recorded_frequency_matches_trajectory_slope(triangle_cfg):
    sc = triangle_cfg.scenario
    trace = simulate(sc, triangle_cfg.controller, 80.0)
    trajs = {i: ClockTrajectory(trace.knots[i], sc.params.omega_min) for i in (1, 2, 3)}
    for rec in trace.samples:
        # slope immediately after actuation is the recorded frequency
        assert slope_at(trajs[rec.node], rec.t_apply) == pytest.approx(rec.frequency, rel=1e-15)


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
            b_ab = closed_form_beta(state.trajectories[a], state.trajectories[b], state.lam[(a, b)], lat_ab, t)
            b_ba = closed_form_beta(state.trajectories[b], state.trajectories[a], state.lam[(b, a)], lat_ba, t)
            g_ab = closed_form_gamma(state.trajectories[a], t, lat_ab)
            g_ba = closed_form_gamma(state.trajectories[b], t, lat_ba)
            assert b_ab + g_ab + b_ba + g_ba == state.lam[(a, b)] + state.lam[(b, a)]
            # direct lambda recomputation at t
            recomputed = (
                b_ab
                - floor_of(1)(state.trajectories[a].eval(t - lat_ab))
                + floor_of(1)(state.trajectories[b].eval(t))
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
        "scenario", "trajectories", "controllers", "lam", "incoming", "queue", "samples",
    ]
    return (
        state.scenario,
        {
            i: [copy.copy(getattr(traj, name)) for name in ClockTrajectory.__slots__]
            for i, traj in state.trajectories.items()
        },
        {i: (c.spec, c.state) for i, c in state.controllers.items()},
        dict(state.lam),
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
            assert trace.omega[i][idx] == slope_at(trajs[i], t)


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
            assert trace.beta[(a, b)][idx] == closed_form_beta(
                trajs[a], trajs[b], lam[(a, b)], link.latency, t, link.gearbox
            )
            assert trace.gamma[(a, b)][idx] == closed_form_gamma(
                trajs[a], t, link.latency, link.gearbox
            )
    # Each controller sample read its buffers as the reference does, with the
    # link's own Fraction gearbox.
    assert trace.samples
    for rec in trace.samples:
        i = rec.node
        assert rec.measurement == tuple(
            (j, closed_form_beta(
                trajs[j], trajs[i], lam[(j, i)], link.latency, rec.t_sample, link.gearbox
            ))
            for (j, b), link in sorted(sc.topology.links.items())
            if b == i
        )


@pytest.mark.parametrize("make_cfg", [triangle3, gearbox_pair], ids=["triangle3", "gearbox_pair"])
def test_sample_record_is_an_immutable_named_tuple(make_cfg):
    assert SampleRecord._fields == (
        "node", "step", "t_sample", "measurement", "t_apply", "correction", "frequency",
    )
    cfg = make_cfg()
    sc = cfg.scenario
    trace = simulate(sc, cfg.controller, 40.0)
    rec = trace.samples[0]
    for name in SampleRecord._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    # The records of a hand-driven loop are those of ``simulate``.
    state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
    returned = []
    while state.trajectories[select_node(state)].max_dom() < 40.0:
        returned.append(step(state))
    assert returned == state.samples == trace.samples
    assert all(type(r) is SampleRecord for r in returned)


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


# A stateful controller: its state sums every measurement the node has seen,
# so a step that read other values or in another order would show later.
INTEGRATOR = ControllerSpec(
    kind="custom",
    init_state=0.0,
    state_fn=lambda xi, y: xi + sum(occ for _, occ in y),
    output_fn=lambda xi, y: 1e-4 * xi,
    clamp=(-0.05, 5.0),
)


BUNDLED = {"triangle3": triangle3, "gearbox_pair": gearbox_pair}


@settings(deadline=None)
@given(
    st.sampled_from(sorted(BUNDLED)) | st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_any_ready_order_property(scenario, order_seed, integrate):
    # A bundled config by name, or a random scenario by its seed.
    if scenario in BUNDLED:
        cfg = BUNDLED[scenario]()
    else:
        cfg = random_scenario(random.Random(scenario))
    if integrate:
        cfg = dataclasses.replace(cfg, controller=INTEGRATOR)
    state, _ = run_in_random_ready_order(cfg, 100.0, random.Random(order_seed))
    assert_same_solution(cfg, state, 100.0)


def test_step_on_a_node_that_is_not_ready_changes_nothing(triangle_cfg):
    sc = triangle_cfg.scenario
    state = init_state(sc, make_controllers(INTEGRATOR, 3))
    while not (waiting := [i for i in sc.topology.nodes() if not is_ready(state, i)]):
        step(state)
    put_on_top(state, waiting[0])
    before = _snapshot(state)
    with pytest.raises(DomainError):
        step(state)
    assert _snapshot(state) == before
    assert any(c.state != 0.0 for c in state.controllers.values())
