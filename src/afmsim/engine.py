"""Simulation engine: exact frame counters and the least-advanced-first loop.

Frame counts are pure functions of the clock trajectories. A directed link
(i, j) carries frames from i into the elastic buffer at j; its occupancy is

    beta_ij(t) = floor(g * theta_i(t - l_ij)) - floor(g * theta_j(t)) + lam_ij

with the conserved integer ``lam_ij`` fixed by the initial conditions. All
floors go through ``scaled_floor``, or ``scaled_floors`` for a whole list with
the same expression, so that every consumer (initialization, occupancy
queries, resampling, the frame-level oracle's calibration and compare) shares
one rounding path; this is what makes beta(0) == beta0 and the cross-checks
integer-exact.

The loop always extends the trajectory whose domain ends earliest: sample at
the phase ``k*p`` ticks past theta0, apply the correction ``d`` ticks later,
append one knot per step. A binary heap keyed on ``(max_dom, id)`` picks that
trajectory in O(log N) per step. Ties go to the smallest node id; the solution
is unique, so the choice cannot matter, and a test that relabels the nodes in
reverse order (so ties fall the other way) shows it.

Readiness: a step of node i samples at ``t_sample``, before the end of its own
domain, and reads each in-neighbour j only at ``t_sample - latency(j, i)``. So
any node whose in-neighbours' domains reach those times may step, in any
order, with the same result. The least-advanced node is always ready, since
``t_sample`` lies before its domain end and so before every other domain end.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .controllers import Controller, ControllerSpec, is_admissible, make_controllers
from .topology import Scenario
from .trajectory import AdmissibilityError, ClockTrajectory, sweep_eval, sweep_slope

Gearbox = Fraction | int


def scaled_floor(gearbox: Gearbox, phase: float) -> int:
    """Floor of the gearbox-scaled phase; the one rounding path for all counters."""
    if gearbox == 1:
        return math.floor(phase)
    return math.floor(phase * gearbox.numerator / gearbox.denominator)


def scaled_floors(gearbox: Gearbox, phases: list[float]) -> list[int]:
    """``[scaled_floor(gearbox, p) for p in phases]``, with the gearbox test
    and its numerator and denominator read once for the whole list."""
    if gearbox == 1:
        return list(map(math.floor, phases))
    num, den = gearbox.numerator, gearbox.denominator
    floor = math.floor
    return [floor(p * num / den) for p in phases]


def frames_sent(traj: ClockTrajectory, s: float, t: float, gearbox: Gearbox = 1) -> int:
    """Frames sent on the half-open wall-time interval (s, t]."""
    if t < s:
        raise ValueError(f"interval end {t!r} before start {s!r}")
    return scaled_floor(gearbox, traj.eval(t)) - scaled_floor(gearbox, traj.eval(s))


def frames_received(
    traj_src: ClockTrajectory, s: float, t: float, latency: float, gearbox: Gearbox = 1
) -> int:
    """Frames received over (s, t]: the sent count shifted by the link latency."""
    return frames_sent(traj_src, s - latency, t - latency, gearbox)


def link_occupancy(
    traj: ClockTrajectory, t: float, latency: float, gearbox: Gearbox = 1
) -> int:
    """Frames in flight at time t on a link fed by ``traj``.

    A frame exactly at the link entrance counts as on the link; one exactly
    at the exit does not (it is already in the buffer).
    """
    return scaled_floor(gearbox, traj.eval(t)) - scaled_floor(gearbox, traj.eval(t - latency))


def buffer_occupancy(
    traj_src: ClockTrajectory,
    traj_dst: ClockTrajectory,
    lam: int,
    latency: float,
    t: float,
    gearbox: Gearbox = 1,
) -> int:
    """Occupancy of the elastic buffer at the destination of a directed link."""
    return (
        scaled_floor(gearbox, traj_src.eval(t - latency))
        - scaled_floor(gearbox, traj_dst.eval(t))
        + lam
    )


@dataclass(frozen=True)
class FatalEvent:
    """A buffer bound violation; fatal for the modeled system, recorded and
    survived by the simulator so post-mortem traces exist."""

    kind: str  # "overflow" | "underflow"
    link: tuple[int, int]
    t: float
    occupancy: int


@dataclass(frozen=True)
class SampleRecord:
    """One controller firing: measurement at ``t_sample``, new frequency in
    force from ``t_apply`` on."""

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

    ``incoming[i]`` holds ``(j, lam, latency, gearbox)`` for every link
    (j, i) into node i, in ascending ``j``; it is fixed at ``init_state``.
    ``queue`` is a binary heap with one ``(max_dom, i)`` entry per node; the
    trajectories grow only through ``step``, which keeps it in sync.
    """

    scenario: Scenario
    trajectories: dict[int, ClockTrajectory]
    controllers: dict[int, Controller]
    lam: dict[tuple[int, int], int]
    steps: dict[int, int]
    incoming: dict[int, tuple[tuple[int, int, float, Gearbox], ...]]
    queue: list[tuple[float, int]]
    samples: list[SampleRecord] = field(default_factory=list)


def compute_lambdas(
    scenario: Scenario, trajectories: dict[int, ClockTrajectory]
) -> dict[tuple[int, int], int]:
    """Conserved per-link constants from the initial conditions.

    Evaluates theta through the trajectories themselves (not a closed form)
    so the floors here cancel exactly against the ones in later occupancy
    queries.
    """
    topo = scenario.topology
    beta0 = scenario.params.beta0
    lam: dict[tuple[int, int], int] = {}
    for (a, b) in topo.directed_links():
        link = topo.links[(a, b)]
        g = link.gearbox
        lam[(a, b)] = (
            beta0[(a, b)]
            - scaled_floor(g, trajectories[a].eval(-link.latency))
            + scaled_floor(g, trajectories[b].eval(0.0))
        )
    return lam


def init_state(scenario: Scenario, controllers: list[Controller]) -> SystemState:
    """Fresh state at the epoch: three-knot trajectories, conserved link
    constants, zeroed step counters. ``controllers[i - 1]`` drives node i."""
    par = scenario.params
    trajectories = {
        i: ClockTrajectory.from_initial_conditions(
            par.theta0[i - 1],
            par.epoch,
            par.omega_init2[i - 1],
            par.omega_init1[i - 1],
            float(par.d),
            min_slope=par.omega_min,
        )
        for i in scenario.topology.nodes()
    }
    topo = scenario.topology
    if len(controllers) != topo.n_nodes:
        raise ValueError("need exactly one controller per node")
    lam = compute_lambdas(scenario, trajectories)
    incoming: dict[int, list[tuple[int, int, float, Gearbox]]] = {i: [] for i in topo.nodes()}
    for (j, i) in topo.directed_links():  # sorted, so each list is in ascending j
        link = topo.links[(j, i)]
        incoming[i].append((j, lam[(j, i)], link.latency, link.gearbox))
    return SystemState(
        scenario=scenario,
        trajectories=trajectories,
        controllers=dict(enumerate(controllers, start=1)),
        lam=lam,
        steps={i: 0 for i in topo.nodes()},
        incoming={i: tuple(links) for i, links in incoming.items()},
        queue=sorted((traj.max_dom(), i) for i, traj in trajectories.items()),
    )


def select_node(state: SystemState) -> int:
    """The node whose trajectory ends earliest; ties go to the smallest id.

    The top of the ``(max_dom, id)`` heap, so a pure O(1) read.
    """
    return state.queue[0][1]


def measure(state: SystemState, i: int, t: float) -> tuple[tuple[int, int], ...]:
    """Occupancies of node i's incoming buffers at wall time t, ordered by
    ascending neighbor id.

    A domain error here means the scheduling order was violated; the epoch
    constraint guarantees in-domain lookups for a correct loop.
    """
    trajectories = state.trajectories
    traj_i = trajectories[i]
    return tuple(
        (j, buffer_occupancy(trajectories[j], traj_i, lam, latency, t, gearbox))
        for j, lam, latency, gearbox in state.incoming[i]
    )


def step(state: SystemState) -> SampleRecord:
    """One loop iteration: extend the least-advanced node by one knot."""
    i = select_node(state)
    par = state.scenario.params
    traj = state.trajectories[i]
    k = state.steps[i]
    s = traj.max_dom()
    phase_s = traj.eval(s)  # knot lookup: exactly theta0 + k*p + d
    t_sample = traj.inverse(phase_s - par.d)
    y = measure(state, i, t_sample)
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
        traj.append(s + par.p / frequency, phase_s + par.p)
    except Exception:
        controller.state = saved
        raise
    heapq.heapreplace(state.queue, (traj.times[-1], i))
    state.steps[i] = k + 1
    record = SampleRecord(
        node=i,
        step=k,
        t_sample=t_sample,
        measurement=y,
        t_apply=s,
        correction=correction,
        frequency=frequency,
    )
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


def build_trace(state: SystemState, t_max: float, grid_dt: float) -> Trace:
    """Resample the finished state onto the output grid and collect fatal
    events; reads ``state`` without changing it.

    Each trajectory is swept once over the ascending grid (``sweep_eval``,
    ``sweep_slope``), and each link's delayed source phases once over the
    grid shifted by its latency. The phases are floored as whole lists by
    ``scaled_floors``, one list per (node, gearbox), and beta and gamma are
    elementwise differences of those integer lists: the same floors as
    ``buffer_occupancy`` and ``link_occupancy``.
    """
    topo = state.scenario.topology
    grid: list[float] = []
    k = 0
    while (t := k * grid_dt) <= t_max:
        grid.append(t)
        k += 1
    theta = {}
    omega = {}
    for i in topo.nodes():
        traj = state.trajectories[i]
        theta[i] = sweep_eval(traj, grid)
        omega[i] = sweep_slope(traj, grid)
    ends = {(i, link.gearbox) for ab, link in topo.links.items() for i in ab}
    floors = {(i, g): scaled_floors(g, theta[i]) for i, g in ends}
    beta: dict[tuple[int, int], list[int]] = {}
    gamma: dict[tuple[int, int], list[int]] = {}
    for (a, b) in topo.directed_links():
        link = topo.links[(a, b)]
        g, latency, lam = link.gearbox, link.latency, state.lam[(a, b)]
        sent = scaled_floors(
            g, sweep_eval(state.trajectories[a], [t - latency for t in grid])
        )
        beta[(a, b)] = [s - c + lam for s, c in zip(sent, floors[(b, g)])]
        gamma[(a, b)] = [f - s for f, s in zip(floors[(a, g)], sent)]
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
    par = scenario.params
    verdict = is_admissible(controller, par.omega_u, par.omega_min)
    if not verdict.ok:
        raise AdmissibilityError(f"controller rejected: {verdict.witness}")
    state = init_state(scenario, make_controllers(controller, scenario.topology.n_nodes))
    while state.queue[0][0] < t_max:
        step(state)
    return build_trace(state, t_max, grid_dt)
