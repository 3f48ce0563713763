"""Node/link graph, per-link parameters, and scenario well-posedness checks.

Edges always come as a pair of directed links, one per direction, each with
its own latency and optional gearbox (a rational frames-per-tick multiplier).
``check`` collects every violated constraint as a named violation instead of
stopping at the first, so a config author sees the whole damage report. Each
finite-value, per-node and ``beta0`` rule is stated once, scanned over a whole
column before any value is walked; the rules on a link's own fields are
decided once per run of one ``Link`` object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from itertools import chain, repeat
from functools import partial
from operator import add, attrgetter, eq, ge, le, lt, mul
from typing import Mapping

# Sampled phases must stay clear of frame boundaries at desk scale so that
# floor computations are never decided by rounding noise.
FRACTIONAL_GUARD = 1e-6

# Integer parameters meet binary64 arithmetic (d / omega_min, phase * num /
# den, occupancies); a float holds every integer exactly only up to 2**53.
MAX_EXACT_INT = 2**53


@dataclass(frozen=True)
class Link:
    """One directed link: latency in seconds, gearbox in frames per tick.

    Config gives every unit gearbox as the int 1 and any other as a reduced
    ``Fraction``; the floors, the engine and the replay read it as it is."""

    latency: float
    gearbox: int | Fraction = 1


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


_INEXACT = "magnitude above 2**53: not exact as a float"
_PER_NODE = ("theta0", "omega_u", "omega_init1", "omega_init2")
_latency = attrgetter("latency")
# Of a type: p, d and beta0 count ticks or frames. Of an integer's magnitude:
# float arithmetic on it neither rounds nor overflows.
_INT, _EXACT = (eq, int), (ge, MAX_EXACT_INT)
_is_int, _exact = partial(*_INT), partial(*_EXACT)

# A rule table has a row (name, subject suffix, column, op, bound, detail) per rule,
# in report order for one node or link. A rule holds for x when op(bound, x), or
# op(x) if bound is None; a string bound names a scalar. The detail is formatted
# with the column's name and value, the scalars and each column's value by name.
_START = "history-start phase theta0 + omega_init2 * epoch = {start!r}"
_NEAR = f"theta0={{theta0!r}} is within {FRACTIONAL_GUARD} of an integer"
_ABOVE_MIN = "{0}={1!r} must exceed omega_min={omega_min!r}"
_NODE_RULES = (
    ("initial_phase_nonpositive", "", "theta0", lt, 0.0, "theta0={theta0!r}"),
    ("value_out_of_range", "", "start", isfinite, None, _START),
    ("initial_phase_integral", "", "frac", lt, 0.0, "theta0={theta0!r} is an integer"),
    ("initial_phase_near_integral", "", "mid", le, FRACTIONAL_GUARD, _NEAR),
    ("initial_phase_near_integral", "", "mid", ge, 1.0 - FRACTIONAL_GUARD, _NEAR),
    ("uncorrected_frequency_nonpositive", "", "omega_u", lt, 0.0, "omega_u={omega_u!r}"),
    ("initial_frequency_not_above_min", "", "omega_init1", lt, "omega_min", _ABOVE_MIN),
    ("initial_frequency_not_above_min", "", "omega_init2", lt, "omega_min", _ABOVE_MIN),
)
_BETA0_RULES = (
    ("wrong_type", " beta0", "type", *_INT, "expected an integer, got {beta0!r}"),
    ("beta0_negative", "", "read", le, 0, "beta0={beta0}"),
    ("value_out_of_range", " beta0", "size", *_EXACT, _INEXACT),
    ("beta0_exceeds_capacity", "", "read", ge, "cap", "beta0={beta0} > capacity={cap}"),
)
# A bound (lt, le, ge) holds for a whole column exactly when it holds for the least
# (lt, le) or the greatest (ge) value, and an equality when it counts them all.
_EXTREME = {lt: min, le: min, ge: max}


def _failing(op, bound, values) -> list[int]:
    """Indexes of the values that break the rule, in order: the column is
    scanned whole, and walked value by value only when the scan fails."""
    extreme = _EXTREME.get(op)
    if extreme:
        holds = not values or op(bound, extreme(values))
    elif op is eq:
        holds = values.count(bound) == len(values)
    else:
        holds = all(map(op, values))
    if holds:
        return []
    test = op if bound is None else partial(op, bound)
    return [i for i, x in enumerate(values) if not test(x)]


def _table(rows, columns, subject, ids, scalars) -> list[tuple]:
    """(id, violation) for each value that breaks a row of a rule table, index-major,
    then in row order; the subject is ``subject`` formatted with the id, then the suffix."""
    found = []
    for k, (_, _, col, op, bound, _) in enumerate(rows):
        for i in _failing(op, scalars.get(bound, bound), columns[col]):
            found.append((i, k))
    found.sort()
    out = []
    for i, k in found:
        name, suffix, col, _, _, detail = rows[k]
        at = {c: values[i] for c, values in columns.items()}
        text = detail.format(col, at[col], **scalars, **at)
        out.append((ids[i], Violation(name, subject.format(ids[i]) + suffix, text)))
    return out


def check(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint of the model's well-posedness rules.

    Pure: the same inputs always produce the same report, in the same order:
    the scalars, the per-node fields, then each link in sorted order, the
    rules on its own fields before its ``beta0``. A subject string is
    formatted only for a violation. See ``_NODE_RULES`` and ``_BETA0_RULES``.
    """
    v: list[Violation] = []
    n = topology.n_nodes
    # An n_nodes of another type than int is reported in place of the rules that read it:
    # the node count, the per-node field lengths and the node ids of the links.
    n_int = _is_int(type(n))
    if not n_int:
        v.append(Violation("wrong_type", "topology.n_nodes", f"expected an integer, got {n!r}"))
    elif n < 1:
        v.append(Violation("node_count_nonpositive", "topology", f"n_nodes={n}"))
    links = topology.links
    keys = sorted(links)
    lks = list(map(links.__getitem__, keys))
    per_node = [getattr(params, name) for name in _PER_NODE]

    # NaN/inf poison every later comparison and floor: refuse them up front and skip
    # the checks they would corrupt. The fields form one column, in report order.
    finite = [params.omega_min, params.epoch, *chain(*per_node), *map(_latency, lks)]
    not_finite = _failing(isfinite, None, finite)
    if not_finite:
        subjects = ["params.omega_min", "params.epoch"]
        for f, vals in zip(_PER_NODE, per_node):
            subjects += [f"params.{f}[{i}]" for i in range(len(vals))]
        subjects += [f"link ({a},{b}) latency" for a, b in keys]
        return v + [Violation("value_not_finite", subjects[i], repr(finite[i])) for i in not_finite]

    cap = topology.buffer_capacity
    p, d, omega_min, epoch = params.p, params.d, params.omega_min, params.epoch
    if cap is not None and cap <= 0:
        v.append(Violation("capacity_nonpositive", "topology", f"buffer_capacity={cap}"))
    # A p or d of another type than int is reported in place of its own rules.
    p_int, d_int = _is_int(type(p)), _is_int(type(d))
    for subject, val, typed in (("params.p", p, p_int), ("params.d", d, d_int)):
        if not typed:
            v.append(Violation("wrong_type", subject, f"expected an integer, got {val!r}"))
    if p_int and p <= 0:
        v.append(Violation("period_nonpositive", "params.p", f"p={p}"))
    if d_int and d <= 0:
        v.append(Violation("delay_nonpositive", "params.d", f"d={d}"))
    if p_int and d_int and d >= p:
        v.append(Violation("delay_not_less_than_period", "params", f"d={d} must be < p={p}"))
    for subject, val, typed in (("params.p", p, p_int), ("params.d", d, d_int)):
        if typed and not _exact(abs(val)):
            v.append(Violation("value_out_of_range", subject, _INEXACT))
    if omega_min <= 0.0:
        v.append(Violation("omega_min_nonpositive", "params.omega_min", f"{omega_min!r}"))
    if epoch >= 0.0:
        v.append(Violation("epoch_nonnegative", "params.epoch", f"epoch={epoch!r}"))

    wrong_length = (
        [(f, len(vals)) for f, vals in zip(_PER_NODE, per_node) if len(vals) != n] if n_int else []
    )
    for name, got in wrong_length:
        detail = f"expected {n} per-node values, got {got}"
        v.append(Violation("param_length", f"params.{name}", detail))
    # Node-indexed rules would misindex a field of the wrong length, or of no known length.
    indexed = n_int and not wrong_length
    if indexed:
        theta0, _, _, omega_init2 = per_node
        # The fractional part (exactly th - floor(th)); in ``mid`` an integral
        # theta0 reads as mid-frame, so only initial_phase_integral names it.
        fracs = [th % 1.0 for th in theta0]
        columns = dict(zip(_PER_NODE, per_node), frac=fracs, mid=[f or 0.5 for f in fracs])
        # Finite inputs can still give a non-finite phase where the history starts.
        columns["start"] = list(map(add, theta0, map(mul, omega_init2, repeat(epoch))))
        ids = range(1, len(theta0) + 1)  # the node ids, read from a field of length n_nodes
        v += [f for _, f in _table(_NODE_RULES, columns, "node {}", ids, {"omega_min": omega_min})]

    beta0 = params.beta0
    beta0_found: dict[tuple[int, int], list[Violation]] = {}
    if beta0.keys() != links.keys():
        missing, extra = sorted(links.keys() - beta0.keys()), sorted(beta0.keys() - links.keys())
        detail = f"missing={missing} extra={extra}"
        v.append(Violation("beta0_keys_mismatch", "params.beta0", detail))
    else:
        # Scanned in the order of ``beta0``, and filed by link. A value of another type than
        # int is reported in place of its other rules, which read it as 0 and drop their findings.
        ids, values = list(beta0), list(beta0.values())
        types = list(map(type, values))
        wrong = {ids[i] for i in _failing(*_INT, types)}
        read = [0 if ab in wrong else x for ab, x in zip(ids, values)] if wrong else values
        columns = {"beta0": values, "type": types, "read": read, "size": list(map(abs, read))}
        rules = _BETA0_RULES if cap is not None else _BETA0_RULES[:-1]
        for ab, found in _table(rules, columns, "link ({0[0]},{0[1]})", ids, {"cap": cap}):
            if ab not in wrong or found.name == "wrong_type":
                beta0_found.setdefault(ab, []).append(found)
    # The epoch bound needs d / omega_min: only a positive floor and an exact d give it meaning.
    lag = d / omega_min if omega_min > 0.0 and d_int and _exact(abs(d)) else None

    # The rules on a link's own fields are decided once per run of one ``Link`` object in
    # the sorted walk; each link of the run reports the run's findings under its own subject.
    run_of = None
    for ab, lk in zip(keys, lks):
        a, b = ab
        if lk is not run_of:
            run_of = lk
            # Only exact ratios are gearboxes; a float has no numerator to read.
            g = lk.gearbox
            gear_ok = isinstance(g, (int, Fraction))
            # A Fraction's numerator and denominator are properties: read them
            # once. A gearbox of the wrong type reads as 1/1, which has no guard.
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

        in_range = not n_int or (1 <= a <= n and 1 <= b <= n)
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

        if beta0_found and ab in beta0_found:
            v += beta0_found[ab]

        # Gearboxes scale the phases that get floored, so the same boundary
        # guard that applies to theta0 must hold for the scaled phases too.
        if not geared or not in_range:
            continue
        if not gear_exact:
            v.append(Violation("value_out_of_range", f"link ({a},{b}) gearbox", _INEXACT))
            continue
        for node in (a, b) if indexed else ():
            scaled = params.theta0[node - 1] * num / den
            if not isfinite(scaled):
                detail = f"gearbox {g} scales node {node} theta0 to {scaled!r}"
                v.append(Violation("value_out_of_range", f"link ({a},{b})", detail))
            elif not FRACTIONAL_GUARD <= scaled % 1.0 <= 1.0 - FRACTIONAL_GUARD:
                detail = f"gearbox {g} puts node {node} scaled phase {scaled!r} on a frame boundary"
                v.append(Violation("gearbox_phase_boundary", f"link ({a},{b})", detail))
    return v


def validate(topology: Topology, params: SystemParams) -> Scenario:
    """Return an immutable scenario, or raise with the full violation list."""
    violations = check(topology, params)
    if violations:
        raise ValidationError(violations)
    return Scenario(topology=topology, params=params)
