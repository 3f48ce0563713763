"""Node/link graph, per-link parameters, and scenario well-posedness checks.

Edges always come as a pair of directed links, one per direction, each with
its own latency and optional gearbox (a rational frames-per-tick multiplier).
``check`` collects every violated constraint as a named violation instead of
stopping at the first, so a config author sees the whole damage report. It
walks the scalars, each node and each link once, one ``if`` per rule; the
finite-value rule scans one whole column first, and the rules on a link's own
fields are decided once per run of one ``Link`` object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Mapping

# Sampled phases must stay clear of frame boundaries at desk scale so that
# floor computations are never decided by rounding noise.
FRACTIONAL_GUARD = 1e-6

# Integer parameters meet binary64 arithmetic (d / omega_min, phase * num /
# den, occupancies); a float holds every integer exactly only up to 2**53.
MAX_EXACT_INT = 2**53

# A fresh state holds about 760 bytes per node before its first step, and
# config broadcasts a scalar per-node value to n_nodes values. At this many
# nodes a run needs over 7 GB before it starts, which no machine holds, as
# with a grid of ``engine.MAX_GRID_POINTS`` points.
MAX_NODES = 10**7

# An int prints in full up to this many bits, about 600 digits: below 640,
# the least limit Python's int-to-str conversion can be set to, so no report
# depends on that setting.
_SHOWN_BITS = 2000


def _shown(x: int) -> str:
    """``str(x)``, or for an int of more than ``_SHOWN_BITS`` bits its sign and
    bit length: under the default limit, an int of more than 4300 digits has
    no ``str``."""
    if isinstance(x, int) and (bits := x.bit_length()) > _SHOWN_BITS:
        return f"{'-' if x < 0 else ''}<{bits}-bit integer>"
    return str(x)


def _link(a: int, b: int) -> str:
    """The subject of link (a, b), its node ids shown by ``_shown``."""
    return f"link ({_shown(a)},{_shown(b)})"


def _keys(keys: list) -> str:
    """``str(keys)`` for sorted link keys, the ids of each pair shown by
    ``_shown``; a key that is not a pair prints as its ``repr``."""
    shown = (
        f"({_shown(k[0])}, {_shown(k[1])})" if type(k) is tuple and len(k) == 2 else repr(k)
        for k in keys
    )
    return f"[{', '.join(shown)}]"


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


_TOO_LARGE = "expected a number, got a value too large for a float"


def too_many_nodes(n: int) -> str:
    """The detail of the ``value_out_of_range`` of an ``n_nodes`` of
    ``MAX_NODES`` or more."""
    return f"n_nodes={_shown(n)}, not below {MAX_NODES}"


def _not_finite(subject: str, x) -> Violation | None:
    """The violation of one value of the finite-value column, if any:
    ``value_not_finite`` for NaN or an infinity, and for a value that is no
    float (an int too large for one, or not a number) the ``wrong_type``
    that config loading reports. A value too large is not printed: an int of
    more than 4300 digits has no ``repr``."""
    try:
        if isfinite(x):
            return None
    except OverflowError:
        return Violation("wrong_type", subject, _TOO_LARGE)
    except TypeError:
        return Violation("wrong_type", subject, f"expected a number, got {x!r}")
    return Violation("value_not_finite", subject, repr(x))


def check(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint of the model's well-posedness rules.

    Pure: the same inputs always produce the same report, in the same order:
    the scalars, node by node, then each link in sorted order, the rules on
    its own fields before its ``beta0``. A subject string is formatted only
    for a violation. A value of another type than ``int`` where the model
    counts (``n_nodes``, ``buffer_capacity``, ``p``, ``d``, ``beta0``) is a
    ``wrong_type`` in place of that value's other rules, and so is a value
    of a float field that no float holds.
    """
    v: list[Violation] = []
    n = topology.n_nodes
    # An n_nodes of another type than int is reported in place of the rules that read it:
    # the node count, the per-node field lengths and the node ids of the links.
    n_int = type(n) is int
    if not n_int:
        v.append(Violation("wrong_type", "topology.n_nodes", f"expected an integer, got {n!r}"))
    elif n < 1:
        v.append(Violation("node_count_nonpositive", "topology", f"n_nodes={_shown(n)}"))
    elif n >= MAX_NODES:
        v.append(Violation("value_out_of_range", "topology.n_nodes", too_many_nodes(n)))
    links = topology.links
    keys = sorted(links)
    lks = list(map(links.__getitem__, keys))
    per_node = [getattr(params, name) for name in _PER_NODE]
    theta0, omega_u, omega_init1, omega_init2 = per_node

    # NaN/inf poison every later comparison and floor: refuse them up front and
    # skip the checks they would corrupt. The fields form one column, in report
    # order, scanned whole and walked value by value only when the scan fails,
    # or raises on a value that is no float.
    finite = [params.omega_min, params.epoch, *theta0, *omega_u, *omega_init1, *omega_init2]
    finite += [lk.latency for lk in lks]
    try:
        all_finite = all(map(isfinite, finite))
    except (OverflowError, TypeError):
        all_finite = False
    if not all_finite:
        subjects = ["params.omega_min", "params.epoch"]
        for f, vals in zip(_PER_NODE, per_node):
            subjects += [f"params.{f}[{i}]" for i in range(len(vals))]
        subjects += [f"{_link(a, b)} latency" for a, b in keys]
        found = map(_not_finite, subjects, finite)
        return v + [violation for violation in found if violation is not None]

    cap = topology.buffer_capacity
    p, d, omega_min, epoch = params.p, params.d, params.omega_min, params.epoch
    # A capacity of another type than int is reported in place of every rule that reads it.
    if cap is not None and type(cap) is not int:
        detail = f"expected an integer, got {cap!r}"
        v.append(Violation("wrong_type", "topology.buffer_capacity", detail))
        cap = None
    if cap is not None and cap <= 0:
        v.append(Violation("capacity_nonpositive", "topology", f"buffer_capacity={_shown(cap)}"))
    # The replay counts frames against the capacity: bound it as p and d are.
    if cap is not None and cap > MAX_EXACT_INT:
        v.append(Violation("value_out_of_range", "topology.buffer_capacity", _INEXACT))
    # A p or d of another type than int is reported in place of its own rules.
    p_int, d_int = type(p) is int, type(d) is int
    for subject, val, typed in (("params.p", p, p_int), ("params.d", d, d_int)):
        if not typed:
            v.append(Violation("wrong_type", subject, f"expected an integer, got {val!r}"))
    if p_int and p <= 0:
        v.append(Violation("period_nonpositive", "params.p", f"p={_shown(p)}"))
    if d_int and d <= 0:
        v.append(Violation("delay_nonpositive", "params.d", f"d={_shown(d)}"))
    if p_int and d_int and d >= p:
        detail = f"d={_shown(d)} must be < p={_shown(p)}"
        v.append(Violation("delay_not_less_than_period", "params", detail))
    for subject, val, typed in (("params.p", p, p_int), ("params.d", d, d_int)):
        if typed and abs(val) > MAX_EXACT_INT:
            v.append(Violation("value_out_of_range", subject, _INEXACT))
    if omega_min <= 0.0:
        v.append(Violation("omega_min_nonpositive", "params.omega_min", f"{omega_min!r}"))
    if epoch >= 0.0:
        v.append(Violation("epoch_nonnegative", "params.epoch", f"epoch={epoch!r}"))

    wrong_length = (
        [(f, len(vals)) for f, vals in zip(_PER_NODE, per_node) if len(vals) != n] if n_int else []
    )
    for name, got in wrong_length:
        detail = f"expected {_shown(n)} per-node values, got {got}"
        v.append(Violation("param_length", f"params.{name}", detail))
    # Node-indexed rules would misindex a field of the wrong length, or of no known length.
    indexed = n_int and not wrong_length
    for i, th, w_u, w_1, w_2 in zip(range(1, n + 1), *per_node) if indexed else ():
        if th <= 0.0:
            v.append(Violation("initial_phase_nonpositive", f"node {i}", f"theta0={th!r}"))
        # Finite inputs can still give a non-finite phase where the history starts.
        start = th + w_2 * epoch
        if not isfinite(start):
            detail = f"history-start phase theta0 + omega_init2 * epoch = {start!r}"
            v.append(Violation("value_out_of_range", f"node {i}", detail))
        frac = th % 1.0  # exactly th - floor(th)
        if frac == 0.0:
            detail = f"theta0={th!r} is an integer"
            v.append(Violation("initial_phase_integral", f"node {i}", detail))
        elif not FRACTIONAL_GUARD <= frac <= 1.0 - FRACTIONAL_GUARD:
            detail = f"theta0={th!r} is within {FRACTIONAL_GUARD} of an integer"
            v.append(Violation("initial_phase_near_integral", f"node {i}", detail))
        if w_u <= 0.0:
            detail = f"omega_u={w_u!r}"
            v.append(Violation("uncorrected_frequency_nonpositive", f"node {i}", detail))
        for name, w in (("omega_init1", w_1), ("omega_init2", w_2)):
            if w <= omega_min:
                detail = f"{name}={w!r} must exceed omega_min={omega_min!r}"
                v.append(Violation("initial_frequency_not_above_min", f"node {i}", detail))

    beta0 = params.beta0
    beta0_ok = beta0.keys() == links.keys()
    if not beta0_ok:
        missing, extra = sorted(links.keys() - beta0.keys()), sorted(beta0.keys() - links.keys())
        detail = f"missing={_keys(missing)} extra={_keys(extra)}"
        v.append(Violation("beta0_keys_mismatch", "params.beta0", detail))
    # The epoch bound needs d / omega_min: only a positive floor and an exact d give it meaning.
    lag = d / omega_min if omega_min > 0.0 and d_int and abs(d) <= MAX_EXACT_INT else None

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
                shown = _shown(num) if den == 1 else f"{_shown(num)}/{_shown(den)}"
                found.append(("gearbox_nonpositive", "", f"gearbox={shown}"))
            if lag is not None and epoch > (bound := -(latency + lag)):
                detail = f"epoch={epoch!r} must be <= {bound!r}"
                found.append(("epoch_too_late", "", detail))
            geared = num != den and num > 0
            gear_exact = geared and num <= MAX_EXACT_INT and den <= MAX_EXACT_INT

        in_range = not n_int or (1 <= a <= n and 1 <= b <= n)
        if a == b:
            v.append(Violation("self_link", _link(a, b), "links must join distinct nodes"))
        elif not in_range:
            detail = f"node ids must be in 1..{_shown(n)}"
            v.append(Violation("link_unknown_node", _link(a, b), detail))
        else:
            if (b, a) not in links:
                detail = f"reverse {_link(b, a)} missing"
                v.append(Violation("link_unpaired", _link(a, b), detail))
            for name, suffix, detail in found:
                v.append(Violation(name, f"{_link(a, b)}{suffix}", detail))

        if beta0_ok:
            b0 = beta0[ab]
            if type(b0) is not int:
                detail = f"expected an integer, got {b0!r}"
                v.append(Violation("wrong_type", f"{_link(a, b)} beta0", detail))
            else:
                if b0 < 0:
                    v.append(Violation("beta0_negative", _link(a, b), f"beta0={_shown(b0)}"))
                if abs(b0) > MAX_EXACT_INT:
                    v.append(Violation("value_out_of_range", f"{_link(a, b)} beta0", _INEXACT))
                if cap is not None and b0 > cap:
                    detail = f"beta0={_shown(b0)} > capacity={_shown(cap)}"
                    v.append(Violation("beta0_exceeds_capacity", _link(a, b), detail))

        # Gearboxes scale the phases that get floored, so the same boundary
        # guard that applies to theta0 must hold for the scaled phases too.
        if not geared or not in_range:
            continue
        if not gear_exact:
            v.append(Violation("value_out_of_range", f"{_link(a, b)} gearbox", _INEXACT))
            continue
        for node in (a, b) if indexed else ():
            scaled = theta0[node - 1] * num / den
            if not isfinite(scaled):
                detail = f"gearbox {g} scales node {node} theta0 to {scaled!r}"
                v.append(Violation("value_out_of_range", _link(a, b), detail))
            elif not FRACTIONAL_GUARD <= scaled % 1.0 <= 1.0 - FRACTIONAL_GUARD:
                detail = f"gearbox {g} puts node {node} scaled phase {scaled!r} on a frame boundary"
                v.append(Violation("gearbox_phase_boundary", _link(a, b), detail))
    return v


def validate(topology: Topology, params: SystemParams) -> Scenario:
    """Return an immutable scenario, or raise with the full violation list."""
    violations = check(topology, params)
    if violations:
        raise ValidationError(violations)
    return Scenario(topology=topology, params=params)
