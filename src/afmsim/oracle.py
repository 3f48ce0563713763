"""Brute-force frame-level replay: the independent cross-check.

Every individual frame is tracked through its send, link traversal, and
consumption, using only the integer crossings of the (gearbox-scaled) clock
phases. Every frame time is a tick of some clock, so ``phase.tick_times``
lists the ticks of each (node, gearbox) clock that a link reads once, up
front, from the longest link latency before zero (so the work does not grow
with the epoch), and each link slices three sorted time lists out of those:
sends and consumptions (source and destination ticks in (0, horizon]) and
arrivals (source ticks from one latency before zero, plus the latency). A
clock is keyed on ``link.gearbox`` as config made it, and a window's ends
are floored through ``phase.floor_of``, the engine's rounding path. A
buffer's occupancy is then a plain count, written once in
``LinkReplay.occupancies``: the initial fill plus the arrivals so far minus
the consumptions so far. It counts ascending times in one merge walk over
the two lists, so a link costs time linear in its events plus the times
queried. It is built without the closed-form counters, so agreement between
the two is a real test and not a tautology.

The bound scans need only the first event that breaks a bound, and find it
by pairing instead of counting: with ``initial`` frames at zero, consumption
k underflows exactly when arrival ``k - initial`` comes after it or does not
exist, and arrival j overflows exactly when consumption ``j - (capacity -
initial)`` does. One C-level comparison of the two sorted lists, one shifted
against the other, finds the first such event, and with ties it lands in
the first tied group that breaks the bound, so it has the time a count at
every event would give (``_first_unpaired``).

The replay consumes trajectories that the engine already produced; it never
re-runs control. Tie rule: occupancy at time t counts every arrival and
every consumption at exactly t, so it is a right-continuous integer step
function, and a frame that arrives at the same instant as another is
consumed leaves it unchanged rather than making a one-instant excursion.

``compare`` checks the two at every controller sample time. It sorts the
sample times once, takes the closed form at them from
``engine.occupancy_series``, the same function that gives ``build_trace``
its beta and gamma on the output grid, so ``verify`` checks the code that
writes ``buffers.csv`` and not a copy of it, and reads the replayed frames
from the count of ``occupancies``. ``occupancy_series`` checks the sorted
list once (``trajectory.check_times``), and no link checks it again. The
occupancy a violation reports is read from ``occupancies`` too, so one count
stands behind every number the replay gives.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count, islice
from math import nan
from operator import gt

from .controllers import ControllerSpec
from .engine import FatalEvent, Trace, compute_lambdas, occupancy_series, simulate
from .phase import Gearbox, floor_of, tick_times
from .topology import Scenario, ValidationError, Violation
from .trajectory import ClockTrajectory, check_times


@dataclass
class LinkReplay:
    """Per-link replay products: the initial fill and the sorted frame times.

    ``occupancies`` is the one frame count; ``first_underflow`` and
    ``first_overflow`` find the first event that breaks a bound by pairing
    the two lists, and give the time a count at every event would give.
    """

    initial: int
    send_times: list[float]  # sends in (0, horizon]
    # Arrivals of the frames in flight at time zero, then of every send, so
    # the list runs past the horizon by up to one latency.
    arrival_times: list[float]
    consume_times: list[float]

    def occupancies(self, ts: list[float]) -> list[int]:
        """Frames in the buffer at each of the times ``ts``, counting every
        event at exactly that time. Meaningful up to the replay horizon, past
        which no consumption is replayed.

        ``ts`` must be ascending (repeats allowed), since the count is one
        walk forward through the arrivals and consumptions; ``check_times``
        rejects times out of order, or a NaN, with a ``ValueError``.
        """
        check_times(ts)
        return self._count(ts)

    def _count(self, ts: list[float]) -> list[int]:
        """``occupancies`` without its check, for times the caller already
        knows are ascending and free of NaN."""
        # A NaN ends each list: no comparison with it is true, so neither walk
        # runs past its last event, not even at t = inf.
        arrivals = iter(self.arrival_times + [nan])
        consumes = iter(self.consume_times + [nan])
        a, c = next(arrivals), next(consumes)
        n = self.initial
        out: list[int] = []
        append = out.append
        for t in ts:
            while a <= t:
                n += 1
                a = next(arrivals)
            while c <= t:
                n -= 1
                c = next(consumes)
            append(n)
        return out

    def first_underflow(self) -> float | None:
        """The first consumption after which the count is negative, or None.

        Without ties, consumption k leaves ``initial + A - (k + 1)`` frames,
        where A counts the arrivals up to it; that is negative exactly when
        arrival ``k - initial`` comes after it, or does not exist.
        """
        return _first_unpaired(self.consume_times, self.arrival_times, self.initial)

    def first_overflow(self, capacity: int, horizon: float) -> float | None:
        """The first arrival up to ``horizon`` after which the count exceeds
        ``capacity``, or None.

        Without ties, arrival j leaves ``initial + (j + 1) - C`` frames, where
        C counts the consumptions up to it; that exceeds ``capacity`` exactly
        when consumption ``j - (capacity - initial)`` comes after it, or does
        not exist.
        """
        arrivals = self.arrival_times[: bisect_right(self.arrival_times, horizon)]
        return _first_unpaired(arrivals, self.consume_times, capacity - self.initial)


def _first_unpaired(events: list[float], partners: list[float], shift: int) -> float | None:
    """The time of the first ``events[i]`` with fewer than ``i + 1 - shift``
    partners at or before it, or None. Both lists are sorted, so that is the
    first i whose partner ``partners[i - shift]`` comes strictly after it or
    does not exist (an event with ``i < shift`` always has enough), and one
    C-level ``map(gt, ...)`` over the two lists, one shifted against the
    other, finds it.

    This is the bound scan of ``first_underflow`` and ``first_overflow``, and
    it gives the time of the per-event scan (the count at each event, every
    event at that instant included) on ties too. The count at a tie group's
    time is the one after its last event K, so the group breaks the bound
    exactly when K is flagged; an earlier member is flagged only if fewer
    partners than K needs come by the same time, so its group breaks the
    bound as well. The first flagged event thus lies in the first group that
    breaks the bound, and has that group's time.
    """
    e0, p0 = max(shift, 0), max(-shift, 0)
    late = map(gt, islice(partners, p0, None), islice(events, e0, None))
    i = next(compress(count(e0), late), None)
    if i is None:
        # Every paired event kept its bound; the first event past the
        # partners' end has none, if there is one.
        i = e0 + max(len(partners) - p0, 0)
    return events[i] if i < len(events) else None


# Each tick is a float in its clock's list, 32 bytes with its list slot, and
# the links that read the clock slice it again into their sends, arrivals and
# consumptions. Past this many ticks the clock lists alone need over 3 GB, and
# no machine holds the replay, as with a grid of ``engine.MAX_GRID_POINTS``
# points.
MAX_REPLAY_TICKS = 10**8


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

    Occupancy falls only at a consumption and rises only at an arrival, and
    the initial fill lies within the bounds, so the first underflow is at the
    first consumption that leaves it negative, and the first overflow at the
    first arrival up to ``horizon`` that leaves it above capacity. Those are
    found by pairing consumptions with arrivals (``LinkReplay.first_underflow``
    and ``first_overflow``); the occupancy reported with each is the count
    of ``LinkReplay.occupancies`` at its time, the one ``compare`` reads.
    """
    topo = scenario.topology
    cover = min(trajectories[i].max_dom() for i in topo.nodes())
    if not 0.0 <= horizon <= cover:
        raise ValueError(f"horizon {horizon!r} outside [0, trajectory coverage {cover!r}]")
    cap = topo.buffer_capacity
    links: dict[tuple[int, int], LinkReplay] = {}
    violations: list[FatalEvent] = []
    # No window starts before the longest latency.
    start = -max((link.latency for link in topo.links.values()), default=0.0)
    clocks = {(i, link.gearbox) for ab, link in topo.links.items() for i in ab}
    # A clock's tick list holds one time per integer its scaled phase crosses
    # from start to its last knot: count them from the floors at the two ends
    # before listing any.
    n_ticks = sum(
        floor_of(g)(trajectories[i].phases[-1]) - floor_of(g)(trajectories[i].eval(start))
        for i, g in clocks
    )
    if n_ticks >= MAX_REPLAY_TICKS:
        detail = (
            f"the clocks tick {n_ticks} times from t={start!r} to their last knots,"
            f" not below {MAX_REPLAY_TICKS}"
        )
        raise ValidationError([Violation("value_out_of_range", "replay", detail)])
    ticks = {(i, g): tick_times(trajectories[i], g, start) for i, g in clocks}

    def window(node: int, g: Gearbox, s: float, t: float) -> list[float]:
        """The ticks of ``node``'s ``g``-scaled clock in (s, t], for s >= start."""
        traj = trajectories[node]
        m0, times = ticks[(node, g)]
        # start <= s <= 0 lie on the history segment, where scaled floors never
        # drop, so lo is not negative.
        lo = floor_of(g)(traj.eval(s)) + 1 - m0
        hi = floor_of(g)(traj.eval(t)) + 1 - m0
        return times[lo:hi]

    for (a, b) in topo.directed_links():
        link = topo.links[(a, b)]
        g, lat = link.gearbox, link.latency
        # The window from -latency takes in the frames in flight at time zero.
        lr = LinkReplay(
            initial=scenario.params.beta0[(a, b)],
            send_times=window(a, g, 0.0, horizon),
            arrival_times=[t + lat for t in window(a, g, -lat, horizon)],
            consume_times=window(b, g, 0.0, horizon),
        )
        links[(a, b)] = lr
        if (t := lr.first_underflow()) is not None:
            violations.append(FatalEvent("underflow", (a, b), t, lr._count([t])[0]))
        if cap is not None and (t := lr.first_overflow(cap, horizon)) is not None:
            violations.append(FatalEvent("overflow", (a, b), t, lr._count([t])[0]))
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
    sample time, every link. Empty list means exact agreement.

    The sample times up to the horizon are sorted once. The closed form is
    ``engine.occupancy_series`` of the sorted times, the function that
    writes beta and gamma on the output grid; the oracle count is the count
    of ``LinkReplay.occupancies`` at the same times. The list is right once
    it is made: the filter drops a NaN (it fails ``<= horizon``), sorting
    makes the rest ascending, ``occupancy_series`` checks it once, and its
    sweeps reject a time outside the trajectories. So every link is counted
    without checking the list again.
    """
    lam = compute_lambdas(scenario, trajectories)
    ts = sorted(rec.t_sample for rec in trace.samples if rec.t_sample <= result.horizon)
    mismatches: list[Mismatch] = []
    # Only the series: the node phases and frequencies would be held for the
    # whole link loop.
    series = occupancy_series(scenario, trajectories, lam, ts)[2]
    for link, formula, _ in series:
        oracle = result.links[link]._count(ts)
        if oracle != formula:
            mismatches += [
                Mismatch(t, link, o, f) for t, o, f in zip(ts, oracle, formula) if o != f
            ]
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
    trace = simulate(scenario, controller, t_max, grid_dt=grid_dt)
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
