"""Piecewise-linear, strictly increasing clock phase functions.

A trajectory is its knots (wall-time seconds, local-tick phase) joined by
straight segments, and nothing else: it knows nothing of the model, whose
initial knots ``engine.init_state`` builds. Knots are only appended at the
end, and ``append`` is the one home of the rules they obey: finite, strictly
increasing in time and phase, and a segment slope (an instantaneous
frequency) strictly above a configured floor, which keeps the function
invertible and rules out Zeno behavior in the loop that extends it.

A list of times is read in one sweep, after ``check_times`` has checked its
order once: ``sweep_phase_slope`` gives a node's phases and frequencies in
one walk of its knots, and ``sweep_eval`` gives phases alone, shifted back
by a latency for a source.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable
from operator import le


class DomainError(ValueError):
    """Evaluation or inversion outside the stored knot range."""


class AdmissibilityError(RuntimeError):
    """A frequency fell to or below the configured minimum, or rose so high
    that a step would not advance the knot time."""

    def __init__(
        self,
        message: str,
        *,
        node: int | None = None,
        step: int | None = None,
        frequency: float | None = None,
    ):
        super().__init__(message)
        self.node = node
        self.step = step
        self.frequency = frequency


class ClockTrajectory:
    """Clock phase as a piecewise-linear, strictly increasing function of time.

    Knot times and phases are kept in parallel sorted lists. ``eval`` and
    ``point_at``, the simulation loop's lookups, test the last segment first,
    where the loop mostly reads; ``eval`` then tests the segment before it,
    since the loop's reads of a neighbour one latency back land on one of
    those two almost always. Otherwise a lookup bisects the knots, as
    ``inverse`` always does. A lookup writes nothing, so every read is a pure
    function of the knots. Evaluation at a knot returns the stored knot value
    exactly.
    """

    __slots__ = ("times", "phases", "min_slope")

    def __init__(self, knots: Iterable[tuple[float, float]], min_slope: float = 0.0):
        knots = iter(knots)
        first = next(knots, None)
        if first is None:
            raise ValueError("a trajectory needs at least one knot")
        t, ph = map(float, first)
        if not (math.isfinite(t) and math.isfinite(ph)):
            raise ValueError("knot times and phases must be finite")
        self.times = [t]
        self.phases = [ph]
        self.min_slope = min_slope
        # Every later knot goes through ``append``, the one home of the knot rules.
        for t, ph in knots:
            self.append(float(t), float(ph))

    # -- lookups -----------------------------------------------------------

    def eval(self, t: float) -> float:
        """Phase at wall time ``t`` by linear interpolation between knots."""
        times = self.times
        i = len(times) - 2  # the last segment, [times[i], times[i + 1])
        if not times[i] <= t < times[i + 1]:
            # The segment before it; ``i > 0`` keeps a one-knot trajectory
            # (i = -1) from reading times[-2].
            if i > 0 and times[i - 1] <= t < times[i]:
                i -= 1
            elif not times[0] <= t <= times[-1]:
                raise DomainError(f"time {t!r} outside domain [{times[0]!r}, {times[-1]!r}]")
            elif t == times[-1]:  # also the one knot of a single-knot trajectory
                return self.phases[-1]
            else:
                i = bisect_right(times, t, 0, i) - 1
        phases = self.phases
        if t == times[i]:
            return phases[i]
        return phases[i] + (t - times[i]) * (phases[i + 1] - phases[i]) / (times[i + 1] - times[i])

    def inverse(self, phase: float) -> float:
        """The unique wall time at which the clock shows ``phase``."""
        phases = self.phases
        if not phases[0] <= phase <= phases[-1]:
            raise DomainError(f"phase {phase!r} outside range [{phases[0]!r}, {phases[-1]!r}]")
        times = self.times
        if phase == phases[-1]:  # also the one knot of a single-knot trajectory
            return times[-1]
        i = bisect_right(phases, phase) - 1
        if phase == phases[i]:
            return times[i]
        return times[i] + (phase - phases[i]) * (times[i + 1] - times[i]) / (phases[i + 1] - phases[i])

    def point_at(self, phase: float) -> tuple[float, float]:
        """``(t, eval(t))`` with ``t = inverse(phase)``, bit for bit, from one
        last-segment test: the point where the clock shows ``phase``, its phase
        read back at that time. Off the last segment, or where ``t`` rounds
        onto a knot, it is ``inverse`` then ``eval``."""
        phases = self.phases
        i = len(phases) - 2
        if phases[i] < phase < phases[i + 1]:
            times = self.times
            t0, p0 = times[i], phases[i]
            dt, dp = times[i + 1] - t0, phases[i + 1] - p0
            t = t0 + (phase - p0) * dt / dp
            if t0 < t < times[i + 1]:
                return t, p0 + (t - t0) * dp / dt
        t = self.inverse(phase)
        return t, self.eval(t)

    # -- growth ------------------------------------------------------------

    def append(self, t_next: float, phase_next: float) -> None:
        """Add a knot at the end; rejects non-monotone or non-finite input and
        slopes at or below the minimum; a NaN fails every check."""
        last_t = self.times[-1]
        last_ph = self.phases[-1]
        # The stored knots are finite, so the lower bounds also reject -inf.
        if not last_t < t_next < math.inf:
            raise ValueError(f"new knot time {t_next!r} must be finite and exceed {last_t!r}")
        if not last_ph < phase_next < math.inf:
            raise ValueError(
                f"new knot phase {phase_next!r} must be finite and exceed {last_ph!r}"
            )
        slope = (phase_next - last_ph) / (t_next - last_t)
        if not slope > self.min_slope:
            raise AdmissibilityError(
                f"appended slope {slope!r} is not above the minimum {self.min_slope!r}",
                frequency=slope,
            )
        self.times.append(t_next)
        self.phases.append(phase_next)

    # -- views -------------------------------------------------------------

    def max_dom(self) -> float:
        """Latest wall time at which the trajectory is defined."""
        return self.times[-1]

    def knots(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.phases))

    def __repr__(self) -> str:
        return (
            f"ClockTrajectory({len(self.times)} knots, "
            f"dom=[{self.times[0]!r}, {self.times[-1]!r}], min_slope={self.min_slope!r})"
        )


# -- sweeps ----------------------------------------------------------------
#
# A sweep reads a trajectory at many ascending times in one pass over the
# knots: it bisects only when a time passes the end of the current segment,
# to find the segment that holds it, instead of once per time. The phases
# are exactly those of ``eval`` (same float expression, stored knot values at
# knots, ``DomainError`` out of domain), and nothing is written to the
# trajectory. ``sweep_eval`` and ``sweep_phase_slope`` each repeat ``eval``'s
# expression, ``p0 if t == t0 else p0 + (t - t0) * dp / dt``, so a change to
# it is made in both sweeps too (``test_sweeps_equal_pointwise_lookups`` pins
# them to ``eval`` bit for bit). A sweep takes a list that ``check_times`` has passed, so it
# checks only the list's two ends against the domain.


def check_times(ts: list[float]) -> None:
    """Raise unless ``ts`` is ascending (repeats allowed) and free of NaN: a
    ``DomainError`` for a NaN, a ``ValueError`` for times out of order."""
    # Pairing the last time with itself also rejects a lone NaN.
    if all(map(le, ts, ts[1:] + ts[-1:])):
        return
    if any(t != t for t in ts):
        raise DomainError("times must be ascending and not NaN, found a NaN")
    raise ValueError("times must be ascending and not NaN")


def _check_ends(times: list[float], first: float, last: float) -> None:
    """Raise ``DomainError`` unless ``first`` and ``last``, the ends of a
    checked list, lie in the domain of the knot times ``times``."""
    if not (times[0] <= first and last <= times[-1]):
        bad = last if times[0] <= first else first
        raise DomainError(f"time {bad!r} outside domain [{times[0]!r}, {times[-1]!r}]")


def sweep_eval(traj: ClockTrajectory, ts: list[float], shift: float = 0.0) -> list[float]:
    """``[traj.eval(t - shift) for t in ts]`` for checked ``ts``, in one pass.

    Rounding ``t - shift`` keeps the order, so only the two shifted ends are
    checked against the domain. With a link's latency as ``shift``, it reads
    the source's phase one latency back: what the far end has received by t.
    """
    if not ts:
        return []
    times, phases = traj.times, traj.phases
    _check_ends(times, ts[0] - shift, ts[-1] - shift)
    last = len(times) - 1
    out: list[float] = []
    append = out.append
    i = 0
    t1 = times[0]  # end of the current segment; the first time moves past it
    for t in ts:
        t -= shift
        if t >= t1:
            i = bisect_right(times, t, i) - 1
            t0, p0 = times[i], phases[i]
            if i < last:
                t1 = times[i + 1]
                dp, dt = phases[i + 1] - p0, t1 - t0
            else:  # t is the last knot
                t1 = math.inf
        append(p0 if t == t0 else p0 + (t - t0) * dp / dt)
    return out


def sweep_phase_slope(traj: ClockTrajectory, ts: list[float]) -> tuple[list[float], list[float]]:
    """``(sweep_eval(traj, ts), slopes)`` for checked ``ts``, in one pass.

    The slope at t is ``(p1 - p0) / (t1 - t0)`` of the segment that holds t,
    right-continuous at knots (a knot takes the segment after it) and the
    last segment at the domain end. Each segment's slope is one float
    object, shared by every time on it, the last knot included. A time
    outside the domain, or a single-knot trajectory, is a ``DomainError``.
    """
    if not ts:
        return [], []
    times, phases = traj.times, traj.phases
    _check_ends(times, ts[0], ts[-1])
    last = len(times) - 2  # index of the last segment
    if last < 0:
        raise DomainError("slope undefined for a single-knot trajectory")
    out: list[float] = []
    slopes: list[float] = []
    append, append_slope = out.append, slopes.append
    i = 0
    t1 = times[0]  # end of the current segment; the first time moves past it
    for t in ts:
        if t >= t1:
            i = bisect_right(times, t, i) - 1
            if i <= last:
                t0, p0 = times[i], phases[i]
                t1 = times[i + 1]
                dp, dt = phases[i + 1] - p0, t1 - t0
                slope = dp / dt
            else:  # t is the last knot; its slope is the last segment's
                if t1 < t:  # not reached from the last segment
                    slope = (phases[-1] - phases[last]) / (t - times[last])
                t0, p0, t1 = t, phases[-1], math.inf
        append(p0 if t == t0 else p0 + (t - t0) * dp / dt)
        append_slope(slope)
    return out, slopes
