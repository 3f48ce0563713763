"""Simulation engine: exact frame counters and the least-advanced-first loop.

Frame counts are differences of gearbox-scaled phase floors (``phase``),
offset on a buffer by the conserved per-link integer of ``compute_lambdas``.
``step`` writes that closed form for one time, its sample time;
``occupancy_series`` writes it for a list of times. That list is checked
once (``trajectory.check_times``); each node is then swept over it once for
its phases and frequencies (``sweep_phase_slope``), and each source swept
one latency back (``sweep_eval``). A sweep checks only the two (shifted)
ends of the list against the domain. Where the list less the latency is the
list itself from some index ``k`` on, float for float, as on the output grid
of a latency that is a whole number of grid steps, the source is swept over
its first ``k`` times only: its phases at the rest are its own sweep's.

Each trajectory starts from three knots, ``(epoch, theta0 + omega_init2 *
epoch)``, ``(0, theta0)`` and ``(d / omega_init1, theta0 + d)``: the history
from the epoch and the stretch up to the first actuation (``init_state``).
The loop always extends the trajectory whose domain ends earliest: sample at
the phase ``k*p`` ticks past theta0, apply the correction ``d`` ticks later,
append one knot per step. So the knots are the loop's whole per-node state:
node i's step index ``k`` is its knot count less three. A binary heap keyed
on ``(max_dom, id)`` picks that trajectory in O(log N) per step. Ties go to
the smallest node id; the solution is unique, so the choice cannot matter,
and a test that relabels the nodes in reverse order (so ties fall the other
way) shows it.

Readiness: a step of node i samples at ``t_sample``, before the end of its own
domain, and reads each in-neighbour j only at ``t_sample - latency(j, i)``. So
any node whose in-neighbours' domains reach those times may step, in any
order, with the same result. The least-advanced node is always ready, since
``t_sample`` lies before its domain end and so before every other domain end.

A step reads no more than that: its own last knot (the phase at the end of
its domain is stored there), its own sample point ``(t_sample, phase)`` in
one lookup (``ClockTrajectory.point_at``), and each in-neighbour's phase
once. Each in-link floors both phases through the scalar floor of its
gearbox (``phase.floor_of``), looked up once per link in ``init_state``, as
the closed form reads. ``point_at`` tests the node's own last segment
first, and ``t_sample`` lies on it in every step after its first (the sample
phase is ``d`` ticks before the last knot and ``p - d`` after the one
before). An in-neighbour's read through ``eval`` tests the neighbour's last
segment, then the one before it, and bisects only when both miss. It lands
on one of those two almost always: the neighbour's domain ends no earlier
than the reader's, and least-advanced-first puts the knot before its last at
or before the reader's domain end, so a read one latency back from
``t_sample`` misses both only when the latency is long against a sample
period.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from operator import sub
from typing import Iterator, NamedTuple

from .controllers import Controller, ControllerSpec, is_admissible, make_controllers
from .phase import Floor, floor_of, scaled_floors
from .topology import Scenario, ValidationError, Violation
from .trajectory import (
    AdmissibilityError,
    ClockTrajectory,
    check_times,
    sweep_eval,
    sweep_phase_slope,
)


@dataclass(frozen=True)
class FatalEvent:
    """A buffer bound violation; fatal for the modeled system, recorded and
    survived by the simulator so post-mortem traces exist."""

    kind: str  # "overflow" | "underflow"
    link: tuple[int, int]
    t: float
    occupancy: int


class SampleRecord(NamedTuple):
    """One controller firing: measurement at ``t_sample``, new frequency in
    force from ``t_apply`` on. A named tuple, so immutable and cheap to build."""

    node: int
    step: int
    t_sample: float
    measurement: tuple[tuple[int, int], ...]
    t_apply: float
    correction: float
    frequency: float


@dataclass
class SystemState:
    """Everything the loop reads and writes while extending trajectories.

    ``incoming[i]`` holds ``(j, lam, latency, floor)`` for every link
    (j, i) into node i, in ascending ``j``, with ``floor`` the link
    gearbox's scalar floor (``phase.floor_of``); it is fixed at
    ``init_state``.
    ``queue`` is a binary heap with one ``(max_dom, i)`` entry per node; the
    trajectories grow only through ``step``, which keeps it in sync. A node's
    next step index is its knot count less three: three initial knots, then
    one per step.
    """

    scenario: Scenario
    trajectories: dict[int, ClockTrajectory]
    controllers: dict[int, Controller]
    lam: dict[tuple[int, int], int]
    incoming: dict[int, tuple[tuple[int, int, float, Floor], ...]]
    queue: list[tuple[float, int]]
    samples: list[SampleRecord] = field(default_factory=list)


def compute_lambdas(
    scenario: Scenario, trajectories: dict[int, ClockTrajectory]
) -> dict[tuple[int, int], int]:
    """Conserved per-link constants from the initial conditions: ``beta0``
    less the ``occupancy_series`` beta at time zero with zero constants. That
    reads theta through the trajectories themselves (not a closed form), so
    its floors cancel exactly against the ones in later occupancy queries.
    """
    links = scenario.topology.links
    _, _, series = occupancy_series(scenario, trajectories, dict.fromkeys(links, 0), [0.0])
    beta0 = scenario.params.beta0
    return {link: beta0[link] - beta[0] for link, beta, _ in series}


def init_state(scenario: Scenario, controllers: list[Controller]) -> SystemState:
    """Fresh state at the epoch: three-knot trajectories and conserved link
    constants. ``controllers[i - 1]`` drives node i.

    Node i's knots are ``(epoch, theta0 + omega_init2 * epoch)``, ``(0,
    theta0)`` and ``(d / omega_init1, theta0 + d)``: a history covering
    [epoch, 0] at slope ``omega_init2``, then the stretch at slope
    ``omega_init1`` up to the first actuation, ``d`` ticks past ``theta0``.
    """
    par = scenario.params
    topo = scenario.topology
    d = float(par.d)
    trajectories = {}
    for i in topo.nodes():
        theta0 = par.theta0[i - 1]
        knots = [
            (par.epoch, theta0 + par.omega_init2[i - 1] * par.epoch),
            (0.0, theta0),
            (d / par.omega_init1[i - 1], theta0 + d),
        ]
        trajectories[i] = ClockTrajectory(knots, min_slope=par.omega_min)
    if len(controllers) != topo.n_nodes:
        raise ValueError("need exactly one controller per node")
    lam = compute_lambdas(scenario, trajectories)
    incoming: dict[int, list[tuple[int, int, float, Floor]]] = {i: [] for i in topo.nodes()}
    for (j, i) in topo.directed_links():  # sorted, so each list is in ascending j
        link = topo.links[(j, i)]
        incoming[i].append((j, lam[(j, i)], link.latency, floor_of(link.gearbox)))
    return SystemState(
        scenario=scenario,
        trajectories=trajectories,
        controllers=dict(enumerate(controllers, start=1)),
        lam=lam,
        incoming={i: tuple(links) for i, links in incoming.items()},
        queue=sorted((traj.max_dom(), i) for i, traj in trajectories.items()),
    )


def select_node(state: SystemState) -> int:
    """The node whose trajectory ends earliest; ties go to the smallest id.

    The top of the ``(max_dom, id)`` heap, so a pure O(1) read.
    """
    return state.queue[0][1]


def step(state: SystemState) -> SampleRecord:
    """One loop iteration: extend the least-advanced node by one knot."""
    i = select_node(state)
    par = state.scenario.params
    traj = state.trajectories[i]
    k = len(traj.times) - 3  # init_state's three knots, then one per step
    s, phase_s = traj.times[-1], traj.phases[-1]  # last knot: phase theta0 + k*p + d
    t_sample, phase_sample = traj.point_at(phase_s - par.d)
    # The measurement: the closed form of ``occupancy_series`` at t_sample, its
    # scalar copy. Each in-neighbour is read once, one latency back; a domain
    # error there means the scheduling order was violated.
    trajectories = state.trajectories
    y = []
    for j, lam, latency, link_floor in state.incoming[i]:
        y.append(
            (j, link_floor(trajectories[j].eval(t_sample - latency)) - link_floor(phase_sample) + lam)
        )
    y = tuple(y)
    # A step that raises leaves the state as it found it, controller included.
    controller = state.controllers[i]
    saved = controller.state
    try:
        correction = controller.update(y)
        frequency = correction + par.omega_u[i - 1]
        if not frequency > par.omega_min:  # a NaN frequency fails too
            raise AdmissibilityError(
                f"admissibility violated at node {i} step {k}: correction {correction!r}"
                f" + omega_u {par.omega_u[i - 1]!r} = {frequency!r}"
                f" <= omega_min {par.omega_min!r}",
                node=i,
                step=k,
                frequency=frequency,
            )
        t_next = s + par.p / frequency
        if not t_next > s:  # a frequency so high that p / frequency is lost in s
            raise AdmissibilityError(
                f"admissibility violated at node {i} step {k}: frequency {frequency!r}"
                f" gives the next knot time {t_next!r}, which does not exceed {s!r}",
                node=i,
                step=k,
                frequency=frequency,
            )
        traj.append(t_next, phase_s + par.p)
    except Exception:
        controller.state = saved
        raise
    heapq.heapreplace(state.queue, (traj.times[-1], i))
    record = SampleRecord(i, k, t_sample, y, s, correction, frequency)
    state.samples.append(record)
    return record


@dataclass
class Trace:
    """Everything a run leaves behind: final knots, per-sample controller
    records, resampled series on the output grid, and fatal events."""

    knots: dict[int, list[tuple[float, float]]]
    samples: list[SampleRecord]
    grid: list[float]
    theta: dict[int, list[float]]
    omega: dict[int, list[float]]
    beta: dict[tuple[int, int], list[int]]
    gamma: dict[tuple[int, int], list[int]]
    fatal_events: list[FatalEvent]
    fingerprint: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def fatal(self) -> bool:
        return bool(self.fatal_events)

    @property
    def first_fatal(self) -> FatalEvent | None:
        return self.fatal_events[0] if self.fatal_events else None


def _fatal_events(
    state: SystemState, grid: list[float], beta: dict[tuple[int, int], list[int]]
) -> list[FatalEvent]:
    """Earliest bound violation per (kind, link), ordered by (t, link, kind).

    Judged on the occupancies the run already holds: each controller sample's
    measurement at its sample time, and the beta series on the output grid.
    """
    cap = state.scenario.topology.buffer_capacity
    first: dict[tuple[str, tuple[int, int]], FatalEvent] = {}

    def note(kind: str, link: tuple[int, int], t: float, occ: int) -> None:
        ev = first.get((kind, link))
        if ev is None or t < ev.t:
            first[(kind, link)] = FatalEvent(kind, link, t, occ)

    for rec in state.samples:
        for j, occ in rec.measurement:
            if occ < 0:
                note("underflow", (j, rec.node), rec.t_sample, occ)
            elif cap is not None and occ > cap:
                note("overflow", (j, rec.node), rec.t_sample, occ)
    for link, series in beta.items():
        if min(series, default=0) < 0:
            k = next(k for k, occ in enumerate(series) if occ < 0)
            note("underflow", link, grid[k], series[k])
        if cap is not None and max(series, default=0) > cap:
            k = next(k for k, occ in enumerate(series) if occ > cap)
            note("overflow", link, grid[k], series[k])
    return sorted(first.values(), key=lambda e: (e.t, e.link, e.kind))


def _swept_count(ts: list[float], latency: float) -> int:
    """How many of the times ``ts`` a source sweeps one latency back: ``k``
    where ``ts[k:]`` less the latency is ``ts[:len(ts) - k]``, float for
    float, so that its floors there are its own, already made; else all."""
    n = len(ts)
    k = bisect_left(ts, ts[0] + latency) if ts else 0
    if k < n and ts[k] - latency == ts[0]:
        if list(map(sub, ts[k:], repeat(latency))) == ts[: n - k]:
            return k
    return n


def occupancy_series(
    scenario: Scenario,
    trajectories: dict[int, ClockTrajectory],
    lam: dict[tuple[int, int], int],
    ts: list[float],
) -> tuple[
    dict[int, list[float]],
    dict[int, list[float]],
    Iterator[tuple[tuple[int, int], list[int], Iterator[int]]],
]:
    """The closed form at the ascending times ``ts``: each node's phases and
    frequencies, and an iterator over the directed links, in order, that
    builds and yields ``(link, beta, gamma)`` one link at a time. Beta is a
    list; gamma is an iterator, so a caller that reads only beta does not pay
    for it.

    ``ts`` is checked once (``check_times``): ascending and free of NaN.
    Each trajectory is swept once over it (``sweep_phase_slope``), which
    checks only the two ends against that node's domain and gives the
    frequencies in the same walk, one float object per knot segment;
    ``compare`` and ``compute_lambdas`` drop them. The node phases are
    floored as a whole list (``scaled_floors``) once per gearbox, keyed on
    ``link.gearbox`` as config made it. The frames sent, the source's floors
    at ``ts`` less the latency, are made once per run of consecutive links
    with one source, latency and gearbox, and held for that run only. With
    ``k`` the first index where ``ts[k] >= ts[0] + latency``: if ``ts[j] -
    latency == ts[j - k]`` for every ``j >= k``, the frames sent at
    ``ts[k:]`` are the source's own floors at ``ts[:n - k]``, since ``eval``
    of one float is one phase, and only ``ts[:k]`` is swept shifted by the
    latency (which still checks the shifted start against the domain);
    otherwise all of ``ts`` is. That test is made once per latency. Either
    way every value is a floor of ``scaled_floors``. This is the list copy
    of the closed form: the output grid, the sample times of
    ``oracle.compare`` and the time zero of ``compute_lambdas`` read it.
    """
    topo = scenario.topology
    check_times(ts)
    theta, omega = {}, {}
    for i in topo.nodes():
        theta[i], omega[i] = sweep_phase_slope(trajectories[i], ts)
    ends = {(i, link.gearbox) for ab, link in topo.links.items() for i in ab}
    floors = {(i, g): scaled_floors(g, theta[i]) for i, g in ends}

    n = len(ts)
    swept: dict[float, int] = {}  # latency -> how many of ts a source sweeps

    def links() -> Iterator[tuple[tuple[int, int], list[int], Iterator[int]]]:
        last = None
        for (a, b) in topo.directed_links():
            link, lam_ab = topo.links[(a, b)], lam[(a, b)]
            g, latency = link.gearbox, link.latency
            if (a, latency, g) != last:  # sorted links: a source's run of out-links
                last = (a, latency, g)
                k = swept.get(latency)
                if k is None:
                    k = swept[latency] = _swept_count(ts, latency)
                sent = scaled_floors(g, sweep_eval(trajectories[a], ts[:k], latency))
                sent += floors[(a, g)][: n - k]
            beta = [s - c + lam_ab for s, c in zip(sent, floors[(b, g)])]
            yield (a, b), beta, map(sub, floors[(a, g)], sent)

    return theta, omega, links()


# The output grid is held many times over: as the grid, as each node's theta
# and omega, as each link's beta and gamma, then as CSV text. Past this many
# points even a two-node trace needs over 10 GB of Python objects.
MAX_GRID_POINTS = 10**8


def check_grid(t_max: float, grid_dt: float) -> list[Violation]:
    """The violation of an output grid of ``MAX_GRID_POINTS`` points or more,
    for a positive ``t_max`` and ``grid_dt``; an empty list if there is none.
    A quotient too large for a float is ``inf``, which fails too."""
    steps = t_max / grid_dt
    if steps < MAX_GRID_POINTS:
        return []
    detail = f"t_max / output_grid = {steps!r} grid points, not below {MAX_GRID_POINTS}"
    return [Violation("value_out_of_range", "run.output_grid", detail)]


def build_trace(state: SystemState, t_max: float, grid_dt: float) -> Trace:
    """Resample the finished state onto the output grid and collect fatal
    events; reads ``state`` without changing it.

    Theta, omega, beta and gamma are ``occupancy_series`` on the grid, the
    series ``oracle.compare`` checks at the sample times.
    """
    topo = state.scenario.topology
    # k * grid_dt grows with k, so the grid is every k * grid_dt <= t_max:
    # n is the first k past t_max, found from the quotient and then stepped
    # to the exact boundary.
    n = int(t_max / grid_dt) + 1
    while (n - 1) * grid_dt > t_max:
        n -= 1
    while n * grid_dt <= t_max:
        n += 1
    grid = [k * grid_dt for k in range(n)]
    theta, omega, series = occupancy_series(state.scenario, state.trajectories, state.lam, grid)
    beta, gamma = {}, {}
    for link, beta_ab, gamma_ab in series:
        beta[link], gamma[link] = beta_ab, list(gamma_ab)
    return Trace(
        knots={i: state.trajectories[i].knots() for i in topo.nodes()},
        samples=list(state.samples),
        grid=grid,
        theta=theta,
        omega=omega,
        beta=beta,
        gamma=gamma,
        fatal_events=_fatal_events(state, grid, beta),
    )


def simulate(
    scenario: Scenario,
    controller: ControllerSpec,
    t_max: float,
    *,
    grid_dt: float = 0.5,
) -> Trace:
    """Run until every trajectory covers [epoch, t_max]; return the trace.

    The controller spec is statically vetted before the run. To force an
    unvetted run, drive ``init_state`` and ``step`` directly; the per-step
    check halts with AdmissibilityError on the first violating step. Buffer
    bound violations do not halt the run: they are recorded as fatal events
    and the trace is delivered to t_max regardless.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if not (math.isfinite(grid_dt) and grid_dt > 0.0):
        raise ValueError(f"grid_dt must be positive and finite, got {grid_dt!r}")
    if violations := check_grid(t_max, grid_dt):
        raise ValidationError(violations)
    par = scenario.params
    verdict = is_admissible(controller, par.omega_u, par.omega_min)
    if not verdict.ok:
        raise AdmissibilityError(f"controller rejected: {verdict.witness}")
    state = init_state(scenario, make_controllers(controller, scenario.topology.n_nodes))
    while state.queue[0][0] < t_max:
        step(state)
    return build_trace(state, t_max, grid_dt)
