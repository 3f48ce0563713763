"""Node/link graph, per-link parameters, and scenario well-posedness checks.

Edges always come as a pair of directed links, one per direction, each with
its own latency and optional gearbox (a rational frames-per-tick multiplier).
``check`` collects every violated constraint as a named violation instead of
stopping at the first, so a config author sees the whole damage report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

# Sampled phases must stay clear of frame boundaries at desk scale so that
# floor computations are never decided by rounding noise.
FRACTIONAL_GUARD = 1e-6

# Integer parameters meet binary64 arithmetic (d / omega_min, phase * num /
# den, occupancies); a float holds every integer exactly only up to 2**53.
MAX_EXACT_INT = 2**53


@dataclass(frozen=True)
class Link:
    """One directed link: latency in seconds, gearbox in frames per tick."""

    latency: float
    gearbox: Fraction = Fraction(1)


@dataclass(frozen=True)
class Topology:
    """Directed-link graph over nodes 1..n_nodes.

    ``links`` maps (src, dst) to the link parameters; a well-formed topology
    contains (j, i) whenever it contains (i, j). ``buffer_capacity`` of None
    means unbounded elastic buffers (analysis runs); a bounded capacity turns
    occupancy excursions into fatal trace events.
    """

    n_nodes: int
    links: Mapping[tuple[int, int], Link]
    buffer_capacity: int | None = None

    def nodes(self) -> range:
        return range(1, self.n_nodes + 1)

    def directed_links(self) -> list[tuple[int, int]]:
        return sorted(self.links)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (a, b) with a < b."""
        return sorted((a, b) for (a, b) in self.links if a < b)


@dataclass(frozen=True)
class SystemParams:
    """Run parameters: sampling, delays, frequencies, initial occupancies.

    Per-node tuples are indexed by node id - 1. ``beta0`` maps each directed
    link (i, j) to the initial occupancy of the buffer at node j fed by i.
    """

    p: int
    d: int
    omega_min: float
    epoch: float
    theta0: tuple[float, ...]
    omega_u: tuple[float, ...]
    omega_init1: tuple[float, ...]
    omega_init2: tuple[float, ...]
    beta0: Mapping[tuple[int, int], int]


@dataclass(frozen=True)
class Violation:
    name: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name} @ {self.subject}: {self.detail}"


class ValidationError(ValueError):
    """One or more scenario constraints failed; carries the full list."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class Scenario:
    """A topology plus parameters that passed every well-posedness check.

    Treat as immutable: controllers and the engine share it freely.
    """

    topology: Topology
    params: SystemParams


def _fractional_violation(value: float) -> str | None:
    frac = value - math.floor(value)
    if frac == 0.0:
        return "integral"
    if frac < FRACTIONAL_GUARD or frac > 1.0 - FRACTIONAL_GUARD:
        return "near-integral"
    return None


def _exact(x: int) -> bool:
    """Whether float arithmetic on the integer ``x`` neither rounds nor overflows."""
    return -MAX_EXACT_INT <= x <= MAX_EXACT_INT


_INEXACT = "magnitude above 2**53: not exact as a float"


def check(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint of the model's well-posedness rules.

    Pure: the same inputs always produce the same report, in the same order:
    the scalars, the per-node fields, then each link in sorted order.
    """
    v: list[Violation] = []
    n = topology.n_nodes
    if n < 1:
        v.append(Violation("node_count_nonpositive", "topology", f"n_nodes={n}"))

    # NaN/inf poison every downstream comparison and floor; refuse them up
    # front and skip the value checks they would corrupt. Only the values that
    # fail get a subject string.
    scalars = [("params.omega_min", params.omega_min), ("params.epoch", params.epoch)]
    not_finite = [(subject, val) for subject, val in scalars if not math.isfinite(val)]
    not_finite += [
        (f"params.{name}[{i}]", val)
        for name in ("theta0", "omega_u", "omega_init1", "omega_init2")
        for i, val in enumerate(getattr(params, name))
        if not math.isfinite(val)
    ]
    not_finite += [
        (f"link ({a},{b}) latency", lk.latency)
        for (a, b), lk in sorted(topology.links.items())
        if not math.isfinite(lk.latency)
    ]
    if not_finite:
        return v + [Violation("value_not_finite", s, f"{val!r}") for s, val in not_finite]

    cap = topology.buffer_capacity
    if cap is not None and cap <= 0:
        v.append(Violation("capacity_nonpositive", "topology", f"buffer_capacity={cap}"))
    if params.p <= 0:
        v.append(Violation("period_nonpositive", "params.p", f"p={params.p}"))
    if params.d <= 0:
        v.append(Violation("delay_nonpositive", "params.d", f"d={params.d}"))
    if params.d >= params.p:
        v.append(
            Violation(
                "delay_not_less_than_period", "params", f"d={params.d} must be < p={params.p}"
            )
        )
    for subject, val in (("params.p", params.p), ("params.d", params.d)):
        if not _exact(val):
            v.append(Violation("value_out_of_range", subject, _INEXACT))
    if params.omega_min <= 0.0:
        v.append(Violation("omega_min_nonpositive", "params.omega_min", f"{params.omega_min!r}"))
    if params.epoch >= 0.0:
        v.append(Violation("epoch_nonnegative", "params.epoch", f"epoch={params.epoch!r}"))

    wrong_length = [
        (field, len(getattr(params, field)))
        for field in ("theta0", "omega_u", "omega_init1", "omega_init2")
        if len(getattr(params, field)) != n
    ]
    for field, got in wrong_length:
        v.append(
            Violation("param_length", f"params.{field}", f"expected {n} per-node values, got {got}")
        )
    omega_inits = (("omega_init1", params.omega_init1), ("omega_init2", params.omega_init2))
    # Node-indexed checks would misindex a field of the wrong length.
    for i in () if wrong_length else topology.nodes():
        th = params.theta0[i - 1]
        subject = f"node {i}"
        if th <= 0.0:
            v.append(Violation("initial_phase_nonpositive", subject, f"theta0={th!r}"))
        # Finite inputs can still give a non-finite phase where the history starts.
        start = th + params.omega_init2[i - 1] * params.epoch
        if not math.isfinite(start):
            v.append(
                Violation(
                    "value_out_of_range",
                    subject,
                    f"history-start phase theta0 + omega_init2 * epoch = {start!r}",
                )
            )
        kind = _fractional_violation(th)
        if kind == "integral":
            v.append(Violation("initial_phase_integral", subject, f"theta0={th!r} is an integer"))
        elif kind == "near-integral":
            v.append(
                Violation(
                    "initial_phase_near_integral",
                    subject,
                    f"theta0={th!r} is within {FRACTIONAL_GUARD} of an integer",
                )
            )
        if params.omega_u[i - 1] <= 0.0:
            v.append(
                Violation("uncorrected_frequency_nonpositive", subject, f"omega_u={params.omega_u[i - 1]!r}")
            )
        for field, inits in omega_inits:
            w = inits[i - 1]
            if w <= params.omega_min:
                v.append(
                    Violation(
                        "initial_frequency_not_above_min",
                        subject,
                        f"{field}={w!r} must exceed omega_min={params.omega_min!r}",
                    )
                )

    links = topology.links
    beta0_ok = set(params.beta0) == set(links)
    if not beta0_ok:
        missing = sorted(set(links) - set(params.beta0))
        extra = sorted(set(params.beta0) - set(links))
        detail = f"missing={missing} extra={extra}"
        v.append(Violation("beta0_keys_mismatch", "params.beta0", detail))
    # The epoch bound needs d / omega_min, which only a positive floor and an
    # exact d make meaningful.
    lag = params.d / params.omega_min if params.omega_min > 0.0 and _exact(params.d) else None

    for (a, b), lk in sorted(links.items()):
        subject = f"link ({a},{b})"
        in_range = 1 <= a <= n and 1 <= b <= n
        # Only exact ratios are gearboxes; a float has no numerator to read.
        # The identity test passes the usual Fraction at the lowest cost.
        g = lk.gearbox
        gear_ok = type(g) is Fraction or isinstance(g, (int, Fraction))
        if a == b:
            v.append(Violation("self_link", subject, "links must join distinct nodes"))
        elif not in_range:
            v.append(Violation("link_unknown_node", subject, f"node ids must be in 1..{n}"))
        else:
            if (b, a) not in links:
                v.append(Violation("link_unpaired", subject, f"reverse link ({b},{a}) missing"))
            if lk.latency <= 0.0:
                v.append(Violation("latency_nonpositive", subject, f"latency={lk.latency!r}"))
            if not gear_ok:
                detail = f"expected an int or a Fraction, got {g!r}"
                v.append(Violation("wrong_type", f"{subject} gearbox", detail))
            # A Fraction's denominator is positive, so its numerator has its
            # sign; comparing the ints skips Fraction's comparison dispatch.
            elif g.numerator <= 0:
                v.append(Violation("gearbox_nonpositive", subject, f"gearbox={g}"))
            if lag is not None and params.epoch > (bound := -(lk.latency + lag)):
                detail = f"epoch={params.epoch!r} must be <= {bound!r}"
                v.append(Violation("epoch_too_late", subject, detail))

        if beta0_ok:
            b0 = params.beta0[(a, b)]
            if b0 < 0:
                v.append(Violation("beta0_negative", subject, f"beta0={b0}"))
            if not _exact(b0):
                v.append(Violation("value_out_of_range", f"{subject} beta0", _INEXACT))
            if cap is not None and b0 > cap:
                v.append(
                    Violation("beta0_exceeds_capacity", subject, f"beta0={b0} > capacity={cap}")
                )

        # Gearboxes scale the phases that get floored, so the same boundary
        # guard that applies to theta0 must hold for the scaled phases too.
        if not (gear_ok and in_range) or g.numerator == g.denominator or g.numerator <= 0:
            continue
        if not (_exact(g.numerator) and _exact(g.denominator)):
            v.append(Violation("value_out_of_range", f"{subject} gearbox", _INEXACT))
            continue
        for node in () if wrong_length else (a, b):
            scaled = params.theta0[node - 1] * g.numerator / g.denominator
            if not math.isfinite(scaled):
                v.append(
                    Violation(
                        "value_out_of_range",
                        subject,
                        f"gearbox {g} scales node {node} theta0 to {scaled!r}",
                    )
                )
            elif _fractional_violation(scaled) is not None:
                v.append(
                    Violation(
                        "gearbox_phase_boundary",
                        subject,
                        f"gearbox {g} puts node {node} scaled phase {scaled!r} on a frame boundary",
                    )
                )
    return v


def validate(topology: Topology, params: SystemParams) -> Scenario:
    """Return an immutable scenario, or raise with the full violation list."""
    violations = check(topology, params)
    if violations:
        raise ValidationError(violations)
    return Scenario(topology=topology, params=params)
