"""Brute-force frame-level replay: the independent cross-check.

Every individual frame is tracked through its send, link traversal, and
consumption, using only the integer crossings of the (gearbox-scaled) clock
phases. Occupancy comes out as an exact integer step function of wall time,
built without the closed-form counters, so agreement between the two is a
real test and not a tautology.

The replay consumes trajectories that the engine already produced; it never
re-runs control. Boundary conventions: a frame arriving at exactly time t is
already in the buffer at t, so arrivals apply before consumptions when event
times tie, and occupancy step functions are right-continuous.

This is a test fixture for desk-scale runs, not a performance path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterator

from . import engine
from .controllers import ControllerSpec
from .engine import FatalEvent, Trace, scaled_floor
from .topology import Scenario
from .trajectory import ClockTrajectory


@dataclass
class OccupancyTrack:
    """Right-continuous integer step function: value at t includes every
    event at exactly t."""

    initial: int
    times: list[float] = field(default_factory=list)
    values: list[int] = field(default_factory=list)

    def at(self, t: float) -> int:
        i = bisect_right(self.times, t)
        return self.initial if i == 0 else self.values[i - 1]


def integer_crossings(
    traj: ClockTrajectory, gearbox, phase_lo: float, phase_hi: float
) -> Iterator[tuple[float, int]]:
    """(time, m) for every integer m the scaled phase crosses in (lo, hi].

    ``phase_lo``/``phase_hi`` are unscaled phases inside the trajectory's
    range. The scaled bounds share the multiplication path of
    ``scaled_floor``, so the number of crossings emitted always equals the
    difference of the corresponding scaled floors.
    """
    if phase_hi < phase_lo:
        raise ValueError(f"phase_hi {phase_hi!r} below phase_lo {phase_lo!r}")
    plain = gearbox == 1
    if not plain:
        num, den = gearbox.numerator, gearbox.denominator
    lo_floor = scaled_floor(gearbox, phase_lo)
    hi_floor = scaled_floor(gearbox, phase_hi)
    if hi_floor <= lo_floor:
        return
    for t0, p0, t1, p1 in traj.segments():
        if plain:
            sp0, sp1 = p0, p1
        else:
            sp0 = p0 * num / den
            sp1 = p1 * num / den
        m_start = max(math.floor(sp0), lo_floor) + 1
        m_end = min(math.floor(sp1), hi_floor)
        if m_end < m_start:
            continue
        dt_dp = (t1 - t0) / (p1 - p0)
        for m in range(m_start, m_end + 1):
            unscaled = float(m) if plain else m * den / num
            yield t0 + (unscaled - p0) * dt_dp, m


@dataclass
class LinkReplay:
    """Per-link replay products: the occupancy track plus the raw event times."""

    latency: float
    track: OccupancyTrack
    send_times: list[float]  # sends in (0, horizon]
    send_seqs: list[int]
    arrival_times: list[float]  # includes frames already in flight at time zero
    arrival_seqs: list[int]
    consume_times: list[float]

    def in_flight(self, t: float) -> int:
        """Frames on the link at time t, counted from arrival bookkeeping."""
        return bisect_right(self.arrival_times, t + self.latency) - bisect_right(
            self.arrival_times, t
        )


@dataclass
class ReplayResult:
    links: dict[tuple[int, int], LinkReplay]
    violations: list[FatalEvent]
    horizon: float


def replay(
    trajectories: dict[int, ClockTrajectory],
    scenario: Scenario,
    horizon: float,
) -> ReplayResult:
    """Track every frame through every link and buffer up to ``horizon``.

    Calibration anchors at time zero: each buffer starts at its configured
    initial occupancy, and the frames already in flight are exactly the sends
    of the preceding latency window.
    """
    topo = scenario.topology
    par = scenario.params
    cover = min(trajectories[i].max_dom() for i in topo.nodes())
    if horizon > cover:
        raise ValueError(f"horizon {horizon!r} beyond trajectory coverage {cover!r}")
    cap = topo.buffer_capacity
    links: dict[tuple[int, int], LinkReplay] = {}
    violations: list[FatalEvent] = []

    for (a, b) in topo.directed_links():
        link = topo.links[(a, b)]
        g = link.gearbox
        lat = link.latency
        th_a = trajectories[a]
        th_b = trajectories[b]
        # Frames in flight at time zero: sent in (-latency, 0], arriving in (0, latency].
        preflight = list(integer_crossings(th_a, g, th_a.eval(-lat), th_a.eval(0.0)))
        sends = list(integer_crossings(th_a, g, th_a.eval(0.0), th_a.eval(horizon)))
        consumes = list(integer_crossings(th_b, g, th_b.eval(0.0), th_b.eval(horizon)))

        arrival_times = [t + lat for t, _ in preflight] + [t + lat for t, _ in sends]
        arrival_seqs = [m for _, m in preflight] + [m for _, m in sends]

        merged = sorted(
            [(t, 0, m) for t, m in zip(arrival_times, arrival_seqs) if t <= horizon]
            + [(t, 1, m) for t, m in consumes]
        )
        occ = par.beta0[(a, b)]
        times: list[float] = []
        values: list[int] = []
        seen_underflow = False
        seen_overflow = False
        for t, group in groupby(merged, key=lambda ev: ev[0]):
            for _, rank, _ in group:
                occ = occ + 1 if rank == 0 else occ - 1
            times.append(t)
            values.append(occ)
            # Judge bounds on the settled value at each instant: simultaneous
            # arrive+consume is one frame replacing another, not an excursion.
            if occ < 0 and not seen_underflow:
                violations.append(FatalEvent("underflow", (a, b), t, occ))
                seen_underflow = True
            elif cap is not None and occ > cap and not seen_overflow:
                violations.append(FatalEvent("overflow", (a, b), t, occ))
                seen_overflow = True

        links[(a, b)] = LinkReplay(
            latency=lat,
            track=OccupancyTrack(initial=par.beta0[(a, b)], times=times, values=values),
            send_times=[t for t, _ in sends],
            send_seqs=[m for _, m in sends],
            arrival_times=arrival_times,
            arrival_seqs=arrival_seqs,
            consume_times=[t for t, _ in consumes],
        )
    violations.sort(key=lambda ev: (ev.t, ev.link, ev.kind))
    return ReplayResult(links=links, violations=violations, horizon=horizon)


@dataclass(frozen=True)
class Mismatch:
    t: float
    link: tuple[int, int]
    oracle: int
    formula: int


def rebuild_trajectories(trace: Trace, scenario: Scenario) -> dict[int, ClockTrajectory]:
    """Trajectories reconstructed from a trace's knot lists."""
    return {
        i: ClockTrajectory(trace.knots[i], min_slope=scenario.params.omega_min)
        for i in scenario.topology.nodes()
    }


def compare(
    result: ReplayResult,
    trace: Trace,
    scenario: Scenario,
    trajectories: dict[int, ClockTrajectory],
) -> list[Mismatch]:
    """Frame-level occupancies vs closed-form occupancies at every controller
    sample time, every link. Empty list means exact agreement."""
    topo = scenario.topology
    lam = engine.compute_lambdas(scenario, trajectories)
    link_list = topo.directed_links()
    mismatches: list[Mismatch] = []
    for rec in trace.samples:
        t = rec.t_sample
        if t > result.horizon:
            continue
        for (a, b) in link_list:
            link = topo.links[(a, b)]
            formula = engine.buffer_occupancy(
                trajectories[a], trajectories[b], lam[(a, b)], link.latency, t, link.gearbox
            )
            oracle_occ = result.links[(a, b)].track.at(t)
            if oracle_occ != formula:
                mismatches.append(Mismatch(t, (a, b), oracle_occ, formula))
    mismatches.sort(key=lambda m: (m.t, m.link))
    return mismatches


@dataclass
class VerifyReport:
    trace: Trace
    result: ReplayResult
    mismatches: list[Mismatch]
    n_samples: int
    n_links: int

    @property
    def n_comparisons(self) -> int:
        return self.n_samples * self.n_links

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_scenario(
    scenario: Scenario,
    controller: ControllerSpec,
    t_max: float,
    *,
    grid_dt: float = 0.5,
) -> VerifyReport:
    """Run the engine, replay the frames, and compare the two end to end."""
    trace = engine.simulate(scenario, controller, t_max, grid_dt=grid_dt)
    trajectories = rebuild_trajectories(trace, scenario)
    horizon = min(trajectories[i].max_dom() for i in scenario.topology.nodes())
    result = replay(trajectories, scenario, horizon)
    mismatches = compare(result, trace, scenario, trajectories)
    return VerifyReport(
        trace=trace,
        result=result,
        mismatches=mismatches,
        n_samples=len(trace.samples),
        n_links=len(scenario.topology.links),
    )
