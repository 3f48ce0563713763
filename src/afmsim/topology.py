"""Node/link graph, per-link parameters, and scenario well-posedness checks.

Edges always come as a pair of directed links, one per direction, each with
its own latency and optional gearbox (a rational frames-per-tick multiplier).
``check`` collects every violated constraint as a named violation instead of
stopping at the first, so a config author sees the whole damage report. It
walks values one by one only where a scan over a whole field fails, and
decides the rules on a link's own fields once per run of links in sorted
order that share one ``Link`` object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, isfinite
from itertools import repeat
from operator import add, attrgetter, mul, sub
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
    frac = value - floor(value)
    if frac == 0.0:
        return "integral"
    if frac < FRACTIONAL_GUARD or frac > 1.0 - FRACTIONAL_GUARD:
        return "near-integral"
    return None


def _exact(x: int) -> bool:
    """Whether float arithmetic on the integer ``x`` neither rounds nor overflows."""
    return -MAX_EXACT_INT <= x <= MAX_EXACT_INT


_INEXACT = "magnitude above 2**53: not exact as a float"


_PER_NODE = ("theta0", "omega_u", "omega_init1", "omega_init2")
_latency = attrgetter("latency")


def _nodes_pass(theta0, omega_u, omega_init1, omega_init2, omega_min, epoch) -> bool:
    """Whether no per-node rule fires, by scans over whole finite fields of
    one length: each rule of the node walk in ``check``, on every node."""
    if not theta0:
        return True
    if min(theta0) <= 0.0:
        return False
    fracs = list(map(sub, theta0, map(floor, theta0)))  # as in _fractional_violation
    return (
        all(map(isfinite, map(add, theta0, map(mul, omega_init2, repeat(epoch)))))
        and FRACTIONAL_GUARD <= min(fracs)
        and max(fracs) <= 1.0 - FRACTIONAL_GUARD
        and min(omega_u) > 0.0
        and min(omega_init1) > omega_min
        and min(omega_init2) > omega_min
    )


def _beta0_pass(values, cap: int | None) -> bool:
    """Whether no initial occupancy is negative, inexact or above ``cap``.

    ``min`` and ``max`` skip a NaN that is not first, so the sum, which a
    NaN poisons, must also compare equal to itself."""
    if not values:
        return True
    limit = MAX_EXACT_INT if cap is None else min(cap, MAX_EXACT_INT)
    if not (min(values) >= 0 and max(values) <= limit):
        return False
    total = sum(values)
    return total == total


def check(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint of the model's well-posedness rules.

    Pure: the same inputs always produce the same report, in the same order:
    the scalars, the per-node fields, then each link in sorted order. A
    subject string is formatted only for a violation. The per-node and
    ``beta0`` rules are first scanned over whole fields, and the rules on a
    link's own fields are decided once per run of one ``Link`` object.
    """
    v: list[Violation] = []
    n = topology.n_nodes
    if n < 1:
        v.append(Violation("node_count_nonpositive", "topology", f"n_nodes={n}"))
    links = topology.links
    items = sorted(links.items())
    per_node = [getattr(params, name) for name in _PER_NODE]

    # NaN/inf poison every downstream comparison and floor; refuse them up
    # front and skip the value checks they would corrupt. A whole field is
    # scanned at once; only a field that fails is walked value by value.
    scalars = [("params.omega_min", params.omega_min), ("params.epoch", params.epoch)]
    not_finite = [(subject, val) for subject, val in scalars if not isfinite(val)]
    for name, vals in zip(_PER_NODE, per_node):
        if not all(map(isfinite, vals)):
            not_finite += [
                (f"params.{name}[{i}]", val) for i, val in enumerate(vals) if not isfinite(val)
            ]
    if not all(map(isfinite, map(_latency, links.values()))):
        not_finite += [
            (f"link ({a},{b}) latency", lk.latency)
            for (a, b), lk in items
            if not isfinite(lk.latency)
        ]
    if not_finite:
        return v + [Violation("value_not_finite", s, f"{val!r}") for s, val in not_finite]

    cap = topology.buffer_capacity
    p, d, omega_min, epoch = params.p, params.d, params.omega_min, params.epoch
    if cap is not None and cap <= 0:
        v.append(Violation("capacity_nonpositive", "topology", f"buffer_capacity={cap}"))
    if p <= 0:
        v.append(Violation("period_nonpositive", "params.p", f"p={p}"))
    if d <= 0:
        v.append(Violation("delay_nonpositive", "params.d", f"d={d}"))
    if d >= p:
        v.append(Violation("delay_not_less_than_period", "params", f"d={d} must be < p={p}"))
    for subject, val in (("params.p", p), ("params.d", d)):
        if not _exact(val):
            v.append(Violation("value_out_of_range", subject, _INEXACT))
    if omega_min <= 0.0:
        v.append(Violation("omega_min_nonpositive", "params.omega_min", f"{omega_min!r}"))
    if epoch >= 0.0:
        v.append(Violation("epoch_nonnegative", "params.epoch", f"epoch={epoch!r}"))

    wrong_length = [
        (name, len(vals)) for name, vals in zip(_PER_NODE, per_node) if len(vals) != n
    ]
    for name, got in wrong_length:
        v.append(
            Violation("param_length", f"params.{name}", f"expected {n} per-node values, got {got}")
        )
    # Node-indexed checks would misindex a field of the wrong length. The
    # nodes are walked one by one only when a whole-field scan fails.
    walk_nodes = not (wrong_length or _nodes_pass(*per_node, omega_min, epoch))
    for i, th, w_u, w_1, w_2 in zip(topology.nodes(), *per_node) if walk_nodes else ():
        if th <= 0.0:
            v.append(Violation("initial_phase_nonpositive", f"node {i}", f"theta0={th!r}"))
        # Finite inputs can still give a non-finite phase where the history starts.
        start = th + w_2 * epoch
        if not isfinite(start):
            v.append(
                Violation(
                    "value_out_of_range",
                    f"node {i}",
                    f"history-start phase theta0 + omega_init2 * epoch = {start!r}",
                )
            )
        kind = _fractional_violation(th)
        if kind == "integral":
            detail = f"theta0={th!r} is an integer"
            v.append(Violation("initial_phase_integral", f"node {i}", detail))
        elif kind == "near-integral":
            v.append(
                Violation(
                    "initial_phase_near_integral",
                    f"node {i}",
                    f"theta0={th!r} is within {FRACTIONAL_GUARD} of an integer",
                )
            )
        if w_u <= 0.0:
            detail = f"omega_u={w_u!r}"
            v.append(Violation("uncorrected_frequency_nonpositive", f"node {i}", detail))
        for name, w in (("omega_init1", w_1), ("omega_init2", w_2)):
            if w <= omega_min:
                v.append(
                    Violation(
                        "initial_frequency_not_above_min",
                        f"node {i}",
                        f"{name}={w!r} must exceed omega_min={omega_min!r}",
                    )
                )

    beta0 = params.beta0
    beta0_ok = beta0.keys() == links.keys()
    if not beta0_ok:
        missing = sorted(links.keys() - beta0.keys())
        extra = sorted(beta0.keys() - links.keys())
        detail = f"missing={missing} extra={extra}"
        v.append(Violation("beta0_keys_mismatch", "params.beta0", detail))
    walk_beta0 = beta0_ok and not _beta0_pass(beta0.values(), cap)
    # The epoch bound needs d / omega_min, which only a positive floor and an
    # exact d make meaningful.
    lag = d / omega_min if omega_min > 0.0 and _exact(d) else None

    # The rules on a link's own fields are decided once per run of one
    # ``Link`` object in the sorted walk; each link of the run reports the
    # run's findings under its own subject.
    run_of = None
    for ab, lk in items:
        a, b = ab
        if lk is not run_of:
            run_of = lk
            # Only exact ratios are gearboxes; a float has no numerator to
            # read. The identity test passes the usual Fraction at the lowest
            # cost.
            g = lk.gearbox
            gear_ok = type(g) is Fraction or isinstance(g, (int, Fraction))
            # A Fraction's numerator and denominator are properties: read
            # them once. A gearbox of the wrong type reads as 1/1, which has
            # no guard.
            num, den = (g.numerator, g.denominator) if gear_ok else (1, 1)
            # (name, subject suffix, detail) of each rule the link breaks.
            found = []
            latency = lk.latency
            if latency <= 0.0:
                found.append(("latency_nonpositive", "", f"latency={latency!r}"))
            if not gear_ok:
                detail = f"expected an int or a Fraction, got {g!r}"
                found.append(("wrong_type", " gearbox", detail))
            # A Fraction's denominator is positive, so its numerator has its sign.
            elif num <= 0:
                found.append(("gearbox_nonpositive", "", f"gearbox={g}"))
            if lag is not None and epoch > (bound := -(latency + lag)):
                detail = f"epoch={epoch!r} must be <= {bound!r}"
                found.append(("epoch_too_late", "", detail))
            geared = num != den and num > 0
            gear_exact = geared and _exact(num) and _exact(den)

        in_range = 1 <= a <= n and 1 <= b <= n
        if a == b:
            v.append(Violation("self_link", f"link ({a},{b})", "links must join distinct nodes"))
        elif not in_range:
            detail = f"node ids must be in 1..{n}"
            v.append(Violation("link_unknown_node", f"link ({a},{b})", detail))
        else:
            if (b, a) not in links:
                detail = f"reverse link ({b},{a}) missing"
                v.append(Violation("link_unpaired", f"link ({a},{b})", detail))
            for name, suffix, detail in found:
                v.append(Violation(name, f"link ({a},{b}){suffix}", detail))

        if walk_beta0:
            b0 = beta0[ab]
            if b0 < 0:
                v.append(Violation("beta0_negative", f"link ({a},{b})", f"beta0={b0}"))
            if not _exact(b0):
                v.append(Violation("value_out_of_range", f"link ({a},{b}) beta0", _INEXACT))
            if cap is not None and b0 > cap:
                detail = f"beta0={b0} > capacity={cap}"
                v.append(Violation("beta0_exceeds_capacity", f"link ({a},{b})", detail))

        # Gearboxes scale the phases that get floored, so the same boundary
        # guard that applies to theta0 must hold for the scaled phases too.
        if not geared or not in_range:
            continue
        if not gear_exact:
            v.append(Violation("value_out_of_range", f"link ({a},{b}) gearbox", _INEXACT))
            continue
        for node in () if wrong_length else (a, b):
            scaled = params.theta0[node - 1] * num / den
            if not isfinite(scaled):
                v.append(
                    Violation(
                        "value_out_of_range",
                        f"link ({a},{b})",
                        f"gearbox {g} scales node {node} theta0 to {scaled!r}",
                    )
                )
            elif _fractional_violation(scaled) is not None:
                v.append(
                    Violation(
                        "gearbox_phase_boundary",
                        f"link ({a},{b})",
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
