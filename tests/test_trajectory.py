"""Clock trajectory unit and property tests."""

import copy
import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from afmsim import trajectory
from afmsim.controllers import make_controllers
from afmsim.engine import init_state, step
from afmsim.phase import floor_of, scaled_floors
from afmsim.scenarios import triangle3
from afmsim.trajectory import (
    AdmissibilityError,
    ClockTrajectory,
    DomainError,
    check_times,
    sweep_eval,
    sweep_phase_slope,
)

from conftest import slope_at


def make(knots, min_slope=0.0):
    return ClockTrajectory(knots, min_slope=min_slope)


# The initial knots of a node with theta0 0.1, epoch -25, both initial
# frequencies 1.1 and d = 2, as ``engine.init_state`` builds them.
INITIAL_KNOTS = [(-25.0, 0.1 + 1.1 * -25.0), (0.0, 0.1), (2.0 / 1.1, 0.1 + 2.0)]


# -- strategies --------------------------------------------------------------

@st.composite
def trajectories(draw, appends=st.integers(1, 12)):
    """Random valid trajectories: slopes strictly above a random floor, with
    ``appends`` knots after the first."""
    min_slope = draw(st.floats(0.0, 2.0))
    t = draw(st.floats(-100.0, 100.0))
    ph = draw(st.floats(-100.0, 100.0))
    knots = [(t, ph)]
    for _ in range(draw(appends)):
        dt = draw(st.floats(0.01, 20.0))
        slope = min_slope + draw(st.floats(0.05, 4.0))
        t += dt
        ph += dt * slope
        knots.append((t, ph))
    return ClockTrajectory(knots, min_slope=min_slope)


# -- eval --------------------------------------------------------------------

def test_eval_midpoint():
    assert make([(0, 0), (2, 4)]).eval(1.0) == 2.0


def test_eval_endpoint_exact():
    assert make([(-1, -0.9), (0, 0.1)]).eval(-1.0) == -0.9


def test_eval_initial_segment_boundary():
    # node with theta0=0.1 free-running at 1.1 before time zero: phase at -1
    # lands exactly on -1.0
    traj = make(INITIAL_KNOTS)
    assert traj.eval(-1.0) == pytest.approx(-1.0, abs=1e-12)


def test_eval_out_of_domain():
    traj = make([(0, 0), (2, 4)])
    with pytest.raises(DomainError):
        traj.eval(-0.001)
    with pytest.raises(DomainError):
        traj.eval(2.001)
    with pytest.raises(DomainError):
        traj.eval(math.nan)


def test_slope_at_out_of_domain():
    traj = make([(0, 0), (1, 1), (2, 3)])
    for t in (-0.001, 2.001, math.nan):
        with pytest.raises(DomainError):
            slope_at(traj, t)
        with pytest.raises(DomainError):
            sweep_phase_slope(traj, [t])


def test_eval_at_every_knot_is_exact():
    knots = [(0.0, 0.1), (1.7, 3.3), (2.9, 7.123), (10.0, 22.0)]
    traj = make(knots)
    for t, ph in knots:
        assert traj.eval(t) == ph
    single = make([(1.0, 2.0)])
    assert single.eval(1.0) == 2.0 and single.inverse(2.0) == 1.0


# -- inverse -----------------------------------------------------------------

def test_inverse_midpoint():
    assert make([(0, 0), (2, 4)]).inverse(2.0) == 1.0


def test_inverse_endpoint():
    assert make([(0, 0.1), (10, 10.1)]).inverse(10.1) == 10.0


def test_inverse_out_of_range():
    traj = make([(0, 0.1), (10, 10.1)])
    with pytest.raises(DomainError):
        traj.inverse(0.0)
    with pytest.raises(DomainError):
        traj.inverse(10.2)
    with pytest.raises(DomainError):
        traj.inverse(math.nan)


def test_round_trip_100_random_times():
    traj = make([(0, 0.5), (3, 4.0), (7, 5.1), (20, 33.0)])
    rng = random.Random(7)
    for _ in range(100):
        t = rng.uniform(0.0, 20.0)
        back = traj.inverse(traj.eval(t))
        assert math.isclose(back, t, rel_tol=1e-12, abs_tol=1e-15)


# -- append ------------------------------------------------------------------

def test_append_extends_domain():
    traj = make([(-3, -2), (0, 0.1)])
    assert traj.max_dom() == 0.0
    traj.append(5.0, 10.1)
    assert traj.max_dom() == 5.0
    assert traj.eval(5.0) == 10.1


def test_append_rejects_shallow_slope():
    traj = make([(0, 0), (1, 1)], min_slope=0.5)
    with pytest.raises(AdmissibilityError):
        traj.append(2.0, 1.4)  # slope 0.4 <= 0.5


def test_append_rejects_nonincreasing():
    traj = make([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        traj.append(1.0, 2.0)
    with pytest.raises(ValueError):
        traj.append(2.0, 1.0)
    with pytest.raises(ValueError):
        traj.append(math.nan, 2.0)
    with pytest.raises(ValueError):
        traj.append(2.0, math.nan)
    with pytest.raises(ValueError):
        traj.append(2.0, math.inf)
    with pytest.raises(ValueError):
        traj.append(math.inf, 2.0)
    with pytest.raises(ValueError):
        make([(0, 0), (1, 1)], min_slope=-1).append(math.inf, 2.0)
    assert traj.knots() == [(0.0, 0.0), (1.0, 1.0)]


def test_append_prefix_stability():
    traj = make([(0, 0), (1, 1)])
    before = traj.knots()
    traj.append(2.0, 3.0)
    assert traj.knots()[:2] == before


# -- max_dom -----------------------------------------------------------------

def test_max_dom_fresh_initial_conditions():
    traj = make(INITIAL_KNOTS)
    assert traj.max_dom() == 2.0 / 1.1
    assert len(traj.times) == 3
    assert traj.eval(0.0) == 0.1
    assert traj.eval(traj.max_dom()) == 0.1 + 2.0


# -- constructor validation ----------------------------------------------------

def test_constructor_rejects_bad_knots():
    with pytest.raises(ValueError):
        ClockTrajectory([])
    with pytest.raises(ValueError):
        make([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        make([(0, 1), (1, 1)])
    with pytest.raises(AdmissibilityError):
        make([(0, 0), (1, 0.3)], min_slope=0.5)
    with pytest.raises(ValueError):
        make([(0, 0), (math.nan, 1)])
    with pytest.raises(ValueError):
        make([(0, 0), (1, math.nan)])
    with pytest.raises(ValueError):
        make([(math.nan, 0), (1, 1)])
    with pytest.raises(ValueError):
        ClockTrajectory([(math.nan, 0.0)])
    with pytest.raises(ValueError):
        ClockTrajectory([(0.0, math.inf)])
    with pytest.raises(ValueError):
        make([(0, 0), (1, math.inf)])
    with pytest.raises(ValueError):
        make([(-math.inf, 0.0), (0.0, 1.0)], min_slope=-1)
    with pytest.raises(ValueError):
        make([(0.0, -math.inf), (1.0, 0.0)])


@pytest.mark.parametrize(
    "knots",
    [
        [(0, 0), (1, 1), (1, 2)],
        [(0, 0), (1, 1), (2, 1)],
        [(0, 0), (1, 1), (2, 1.3)],
        [(0, 0), (1, 1), (math.nan, 2)],
        [(0, 0), (1, 1), (2, math.inf)],
    ],
)
def test_constructor_applies_the_append_rules(knots):
    # Knots after the first are added by append, so both raise alike.
    def outcome(build):
        try:
            return build().knots()
        except (ValueError, AdmissibilityError) as exc:
            return type(exc), str(exc), getattr(exc, "frequency", None)

    def by_append():
        traj = make(knots[:1], min_slope=0.5)
        for t, ph in knots[1:]:
            traj.append(float(t), float(ph))
        return traj

    expected = outcome(by_append)
    assert isinstance(expected, tuple)
    assert outcome(lambda: make(knots, min_slope=0.5)) == expected


def test_slope_at_is_right_continuous():
    traj = make([(0, 0), (1, 2), (3, 3)])
    assert slope_at(traj, 0.5) == 2.0
    assert slope_at(traj, 1.0) == 0.5  # knot takes the following segment
    assert slope_at(traj, 3.0) == 0.5  # domain end takes the last segment
    assert sweep_phase_slope(traj, [0.5, 1.0, 3.0])[1] == [2.0, 0.5, 0.5]


# -- properties ----------------------------------------------------------------

@given(trajectories(), st.data())
def test_strict_monotonicity(traj, data):
    lo, hi = traj.times[0], traj.max_dom()
    t1 = data.draw(st.floats(lo, hi))
    t2 = data.draw(st.floats(lo, hi))
    if abs(t2 - t1) < 1e-9 * max(1.0, abs(t1)):
        return  # interpolation cannot resolve sub-ulp phase gaps
    if t1 > t2:
        t1, t2 = t2, t1
    assert traj.eval(t1) < traj.eval(t2)


@given(trajectories())
def test_slope_floor_every_segment(traj):
    ts, ps = traj.times, traj.phases
    for t0, p0, t1, p1 in zip(ts, ps, ts[1:], ps[1:]):
        assert (p1 - p0) / (t1 - t0) > traj.min_slope


@given(trajectories(), st.data())
def test_round_trip_property(traj, data):
    t = data.draw(st.floats(traj.times[0], traj.max_dom()))
    assert math.isclose(traj.inverse(traj.eval(t)), t, rel_tol=1e-12, abs_tol=1e-9)
    ph = data.draw(st.floats(traj.phases[0], traj.phases[-1]))
    assert math.isclose(traj.eval(traj.inverse(ph)), ph, rel_tol=1e-12, abs_tol=1e-9)


@given(trajectories())
def test_eval_knots_exact_property(traj):
    for t, ph in traj.knots():
        assert traj.eval(t) == ph
        assert traj.inverse(ph) == t


def bisect_lookup(xs, ys, x):
    """``y`` at ``x`` on the knots (``xs``, ``ys``) by one bisection over all
    of them: ``eval`` with ``xs`` the times, ``inverse`` with ``xs`` the phases."""
    if not xs[0] <= x <= xs[-1]:
        raise DomainError(f"{x!r} outside [{xs[0]!r}, {xs[-1]!r}]")
    i = bisect_right(xs, x) - 1
    if x == xs[i]:
        return ys[i]
    return ys[i] + (x - xs[i]) * (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])


def bisect_point(times, phases, x):
    """``(inverse(x), eval(inverse(x)))`` with both lookups by ``bisect_lookup``."""
    t = bisect_lookup(phases, times, x)
    return t, bisect_lookup(times, phases, t)


def outcome(lookup, x):
    """The value of ``lookup(x)`` as hex (each value of a pair), or the name
    of the error it raised."""
    try:
        y = lookup(x)
    except DomainError:
        return "DomainError"
    return tuple(map(float.hex, y)) if type(y) is tuple else y.hex()


@given(trajectories(st.integers(0, 12)), st.data())
def test_lookups_equal_a_bisect_only_reference(traj, data):
    # Bit for bit, on trajectories of one knot and more: at the last two knots,
    # at any knot, just below the last segment, on the segment before it,
    # anywhere in the domain and
    # anywhere before its last segment, and just outside the domain. The one
    # lookup of a sample point (``point_at``) is also read at every knot phase
    # and one ulp either side, where its time can round onto a knot, and on
    # the first segment, the history that the loop's first step can land on.
    for xs, reference, lookup in (
        (traj.times, partial(bisect_lookup, traj.times, traj.phases), traj.eval),
        (traj.phases, partial(bisect_lookup, traj.phases, traj.times), traj.inverse),
        (traj.phases, partial(bisect_point, traj.times, traj.phases), traj.point_at),
    ):
        lo, hi = xs[0], xs[-1]
        last = xs[max(len(xs) - 2, 0)]  # the last segment's start, or the one knot
        before = xs[max(len(xs) - 3, 0)]  # the start of the segment before it
        points = [
            last,
            hi,
            data.draw(st.sampled_from(xs)),
            math.nextafter(last, -math.inf),
            data.draw(st.floats(before, last)),
            data.draw(st.floats(lo, hi)),
            data.draw(st.floats(lo, last)),
            math.nextafter(lo, -math.inf),
            math.nextafter(hi, math.inf),
            math.nan,
        ]
        if lookup == traj.point_at:
            points += [
                y for x in xs for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
            ]
            points.append(data.draw(st.floats(lo, xs[min(1, len(xs) - 1)])))
        for x in points:
            assert outcome(lookup, x) == outcome(reference, x)


def spread_knots(n, seed):
    """``n`` knots of uneven spacing and slope, from t = -3."""
    rng = random.Random(seed)
    knots, t, ph = [], -3.0, 0.25
    for _ in range(n):
        knots.append((t, ph))
        dt = rng.uniform(0.1, 2.0)
        t, ph = t + dt, ph + dt * rng.uniform(0.2, 3.0)
    return knots


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_eval_equals_a_bisection_on_every_segment(n):
    # ``eval`` tests the last segment, then the one before it, and bisects
    # only when both miss: each path gives the bisection's value, bit for
    # bit. On each segment: its start, one ulp either side of it, an
    # interior time and one ulp below its end; then the two domain ends and
    # the times just outside them.
    traj = make(spread_knots(n, seed=n))
    times = traj.times
    reference = partial(bisect_lookup, times, traj.phases)
    lo, hi = times[0], times[-1]
    points = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan]
    on = {}  # segment index, counted from the last one (0), -> times read there
    for k, (t0, t1) in enumerate(zip(times, times[1:])):
        inside = [t0, math.nextafter(t0, math.inf), (t0 + t1) / 2, math.nextafter(t1, -math.inf)]
        on[len(times) - 2 - k] = inside
        points += inside + [math.nextafter(t0, -math.inf)]
    assert sorted(on) == list(range(n - 1))  # last, the one before, earlier ones
    for t in points:
        assert outcome(traj.eval, t) == outcome(reference, t)
    for t in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan):
        with pytest.raises(DomainError):
            traj.eval(t)


def test_the_loop_bisects_only_off_the_last_two_segments(monkeypatch):
    # On the bundled triangle to T=200, every in-neighbour read but three
    # lands on the neighbour's last segment or the one before it, and each
    # step's own sample point on its last: three bisections in the loop,
    # where a lookup that tests the last segment alone makes 145.
    cfg = triangle3(t_max=200.0)
    sc = cfg.scenario
    state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
    calls = []

    def counting_bisect_right(*args):
        calls.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(trajectory, "bisect_right", counting_bisect_right)
    while state.queue[0][0] < 200.0:
        step(state)
    assert len(calls) == 3


# -- sweeps --------------------------------------------------------------------

@given(trajectories(), st.data())
def test_sweeps_equal_pointwise_lookups(traj, data):
    lo, hi = traj.times[0], traj.max_dom()
    ts = data.draw(st.lists(st.floats(lo, hi), max_size=40))
    # knots, the first and last knot among them, several times over
    ts += data.draw(st.lists(st.sampled_from(traj.times), max_size=8))
    ts += [lo, hi, hi]
    ts.sort()
    # bit for bit: float.hex tells -0.0 from 0.0
    assert [v.hex() for v in sweep_eval(traj, ts)] == [traj.eval(t).hex() for t in ts]
    phases, slopes = sweep_phase_slope(traj, ts)
    assert [v.hex() for v in phases] == [traj.eval(t).hex() for t in ts]
    assert [v.hex() for v in slopes] == [slope_at(traj, t).hex() for t in ts]


@given(trajectories(), st.data())
def test_one_slope_object_per_segment(traj, data):
    # Every time on one knot segment gets the same float object, the last
    # knot the last segment's, whether the sweep reaches the last knot from
    # the last segment or from one before it: ``write_trace`` formats omega
    # once per run of one object.
    lo, hi = traj.times[0], traj.max_dom()
    ts = sorted(data.draw(st.lists(st.floats(lo, hi), max_size=40)) + [*traj.times, hi])
    slopes = sweep_phase_slope(traj, ts)[1]
    last = len(traj.times) - 2
    segments = [min(bisect_right(traj.times, t) - 1, last) for t in ts]
    for k in range(1, len(ts)):
        assert (slopes[k] is slopes[k - 1]) == (segments[k] == segments[k - 1]), ts[k]
    # the last knot straight after the first, or alone
    first, end = sweep_phase_slope(traj, [lo, hi])[1]
    assert end.hex() == slope_at(traj, hi).hex()
    assert (first is end) == (last == 0)
    assert sweep_phase_slope(traj, [hi]) == ([traj.phases[-1]], [end])


def test_sweeps_of_no_times_are_empty():
    assert sweep_eval(make([(0, 0), (1, 1)]), []) == []
    assert sweep_phase_slope(make([(0, 0), (1, 1)]), []) == ([], [])
    assert sweep_phase_slope(make([(0, 0)]), []) == ([], [])


def test_sweeps_on_a_single_knot():
    traj = make([(2.0, 5.0)])
    assert sweep_eval(traj, [2.0, 2.0]) == [traj.eval(2.0)] * 2 == [5.0, 5.0]
    with pytest.raises(DomainError):
        slope_at(traj, 2.0)
    with pytest.raises(DomainError):
        sweep_phase_slope(traj, [2.0])


@pytest.mark.parametrize(
    "ts",
    [
        [-0.001, 1.0],
        [1.0, 2.001],
        [math.nan],
        [math.nan, 1.0],
        [0.5, math.nan],
        [-math.inf, 1.0],
    ],
)
def test_sweeps_out_of_domain(ts):
    traj = make([(0, 0), (1, 1), (2, 3)])
    with pytest.raises(DomainError):
        sweep_eval(traj, ts)
    with pytest.raises(DomainError):
        sweep_phase_slope(traj, ts)


# -- the one order check ---------------------------------------------------------

def test_check_times_rejects_a_nan():
    # The ends of this list lie in the domain, so only the check finds the NaN.
    with pytest.raises(DomainError, match="ascending and not NaN"):
        check_times([0.5, math.nan, 1.5])


def test_check_times_rejects_descending_times():
    with pytest.raises(ValueError, match="ascending and not NaN") as caught:
        check_times([1.5, 0.5])
    assert type(caught.value) is ValueError


def test_sweeps_write_nothing():
    traj = make([(0, 0), (1, 1), (2, 3)])
    before = {name: copy.deepcopy(getattr(traj, name)) for name in ClockTrajectory.__slots__}
    sweep_eval(traj, [0.0, 0.5, 1.0, 2.0])
    sweep_phase_slope(traj, [0.0, 0.5, 1.0, 2.0])
    assert {name: getattr(traj, name) for name in ClockTrajectory.__slots__} == before


# -- the source read one latency back --------------------------------------------

GEARBOXES = [1, Fraction(2), Fraction(3, 2), Fraction(1, 2), Fraction(7, 5), Fraction(2, 3)]


def exact_shifts(points, latency):
    """The times t with ``t - latency`` exactly one of ``points``."""
    return [t for t in (p + latency for p in points) if t - latency in points]


@given(
    trajectories(),
    st.sampled_from(GEARBOXES),
    st.sampled_from([0.0, 0.5, 1.0, 0.3, 2.75]),
    st.data(),
)
def test_shifted_floors_equal_pointwise_floors(traj, gearbox, latency, data):
    lo, hi = traj.times[0], traj.max_dom()
    ts = [t + latency for t in data.draw(st.lists(st.floats(lo, hi), max_size=40))]
    # knots, the last one among them, several times over
    knots = data.draw(st.lists(st.sampled_from(traj.times), max_size=8))
    ts += exact_shifts(knots + [lo, hi, hi], latency)
    ts = sorted(t for t in ts if lo <= t - latency <= hi)
    want = [floor_of(gearbox)(traj.eval(t - latency)) for t in ts]
    phases = sweep_eval(traj, ts, latency)
    assert [v.hex() for v in phases] == [traj.eval(t - latency).hex() for t in ts]
    assert scaled_floors(gearbox, phases) == want
    assert scaled_floors(gearbox, sweep_eval(traj, [t - latency for t in ts])) == want


@pytest.mark.parametrize("gearbox", GEARBOXES)
@pytest.mark.parametrize("latency", [0.0, 1.0])
def test_shifted_floors_on_knots_and_repeats(gearbox, latency):
    # Integer knots make every phase at a knot a frame boundary, where the
    # stored value and not an interpolation must be floored.
    traj = make([(-2.0, -3.0), (0.0, 0.0), (1.0, 2.0), (3.0, 3.0), (4.0, 6.0)])
    shifted = [-2.0, -2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 2.0, 2.999, 3.0, 3.0, 4.0, 4.0]
    ts = [t + latency for t in shifted]
    want = [floor_of(gearbox)(traj.eval(t)) for t in shifted]
    assert scaled_floors(gearbox, sweep_eval(traj, ts, latency)) == want
    assert scaled_floors(gearbox, sweep_eval(traj, [], latency)) == []


@pytest.mark.parametrize("ts", [[-1.5, 0.0], [0.5, 3.6], [-3.0], [4.0]])
def test_shifted_floors_check_the_shifted_ends(ts):
    # A time one latency back that leaves the domain [-1, 2] at either end
    traj = make([(-1.0, 0.5), (0.0, 1.5), (2.0, 2.5)])
    with pytest.raises(DomainError, match="outside domain"):
        scaled_floors(1, sweep_eval(traj, ts, 1.5))
