"""Frame counts from clock phases: the one rounding path and the one crossing time.

Frame counts are pure functions of the clock trajectories. A directed link
(i, j) carries frames from i into the elastic buffer at j; its occupancy is

    beta_ij(t) = floor(g * theta_i(t - l_ij)) - floor(g * theta_j(t)) + lam_ij

with the conserved integer ``lam_ij`` fixed by the initial conditions. A
gearbox ``g`` comes as config reads it, the int 1 or a reduced ``Fraction``,
and every reader here takes it as it is. All floors go through one rounding
path: ``floor_of(g)``, the one scalar floor of a gearbox, and its list form
``scaled_floors`` with the same expression. Every consumer shares it: the
engine's ``step`` (each controller sample, through the floors that
``init_state`` looks up once per link) and ``occupancy_series`` (the link
constants at time zero, the output grid, and the sample times that
``oracle.compare`` checks), and the frame-level oracle's tick windows. This
is what makes beta(0) == beta0 and the cross-checks integer-exact. Every
frame event is a crossing of an integer by a scaled phase, and
``tick_times`` is the one inversion of that scaling into times.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable
from fractions import Fraction

from .trajectory import ClockTrajectory


# The floors read a gearbox's numerator and denominator, which both forms have.
Gearbox = int | Fraction
# The floor of a gearbox-scaled phase, as a function of the phase.
Floor = Callable[[float], int]


def floor_of(gearbox: Gearbox) -> Floor:
    """The floor of the ``gearbox``-scaled phase, as one function of the
    phase: ``math.floor`` itself for a unit gearbox, else ``floor(phase *
    num / den)`` with float ``num`` and ``den``, the expression of
    ``scaled_floors``."""
    if gearbox == 1:
        return math.floor
    # A float times or over an int converts the int as ``float`` does, so
    # float operands give the same values with float-only arithmetic.
    num, den = float(gearbox.numerator), float(gearbox.denominator)
    floor = math.floor

    def floor_ratio(phase: float) -> int:
        return floor(phase * num / den)

    return floor_ratio


def scaled_floors(gearbox: Gearbox, phases: list[float]) -> list[int]:
    """``list(map(floor_of(gearbox), phases))``, with the gearbox test and
    its numerator and denominator read once for the whole list, and the
    expression of ``floor_of`` written inline."""
    if gearbox == 1:
        return list(map(math.floor, phases))
    num, den = float(gearbox.numerator), float(gearbox.denominator)
    floor = math.floor
    return [floor(p * num / den) for p in phases]


def tick_times(
    traj: ClockTrajectory, gearbox: Gearbox, start: float
) -> tuple[int, list[float]]:
    """``(m0, times)``: ``times[k]`` is when the gearbox-scaled phase reaches
    ``m0 + k``, for every integer the trajectory crosses after ``start``, so
    ``m0 = floor_of(g)(eval(start)) + 1``. This is the one place where a
    crossing time is defined.

    A segment holds the integers in ``(floor_of(g)(p0), floor_of(g)(p1)]``,
    so the ticks in a time window (s, t] with ``start <= s`` are those of the
    integers in ``(floor_of(g)(eval(s)), floor_of(g)(eval(t))]``. The list
    starts at the segment that holds ``start``, so its length does not grow
    with the history before it.
    """
    ts, ps = traj.times, traj.phases
    num, den = gearbox.numerator, gearbox.denominator
    m_start = floor_of(gearbox)(traj.eval(start))
    first = bisect_right(ts, start) - 1  # the segment that holds start
    floors = scaled_floors(gearbox, ps[first:])
    # One list over (segment, integer) pairs; ``for dt_dp in [...]`` binds
    # the segment's slope once.
    times = [
        t0 + (m * den / num - p0) * dt_dp
        for t0, t1, p0, p1, m_lo, m_hi in zip(
            ts[first:], ts[first + 1 :], ps[first:], ps[first + 1 :], floors, floors[1:]
        )
        for dt_dp in [(t1 - t0) / (p1 - p0)]
        for m in range(max(m_lo, m_start) + 1, m_hi + 1)
    ]
    return m_start + 1, times
