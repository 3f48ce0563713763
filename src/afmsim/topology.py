"""Node/link graph, per-link parameters, and scenario well-posedness checks.

Edges always come as a pair of directed links, one per direction, each with
its own latency and optional gearbox (a rational frames-per-tick multiplier).
``check`` collects every violated constraint as a named violation instead of
stopping at the first, so a config author sees the whole damage report. Types
are checked once, first: a value of a type that config never makes is a
``wrong_type``, reported alone. Then ``rules`` walks the scalars, each node
and each link once, one ``if`` per rule and no type test; the finite-value
rule scans one whole column first, and the rules on a link's own fields are
decided once per run of one ``Link`` object. Config loading calls ``rules``
directly, since its reader makes only well-typed values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite

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
    bit length: by default an int of more than 4300 digits has no ``str``."""
    if (bits := x.bit_length()) > _SHOWN_BITS:
        return f"{'-' if x < 0 else ''}<{bits}-bit integer>"
    return str(x)


def _link(a: int, b: int) -> str:
    """The subject of link (a, b), its node ids shown by ``_shown``."""
    return f"link ({_shown(a)},{_shown(b)})"


def _keys(keys: list) -> str:
    """``str(keys)`` for sorted link keys, each id shown by ``_shown``."""
    return f"[{', '.join(f'({_shown(a)}, {_shown(b)})' for a, b in keys)}]"


@dataclass(frozen=True)
class Link:
    """One directed link: latency in seconds, gearbox in frames per tick.

    ``check`` requires a ``float`` latency and an ``int`` or ``Fraction``
    gearbox, as exact types: a bool is no int. Config gives every unit
    gearbox as the int 1 and any other as a reduced ``Fraction``; the floors,
    the engine and the replay read it as it is."""

    latency: float
    gearbox: int | Fraction = 1


@dataclass(frozen=True)
class Topology:
    """Directed-link graph over nodes 1..n_nodes.

    ``links`` maps (src, dst) to the link parameters; a well-formed topology
    contains (j, i) whenever it contains (i, j). ``buffer_capacity`` of None
    means unbounded elastic buffers (analysis runs); a bounded capacity turns
    occupancy excursions into fatal trace events.

    ``check`` requires exact types: ``n_nodes`` an ``int``, ``links`` a ``dict``
    from ``tuple`` pairs of ``int`` to ``Link``, a capacity of None or an ``int``.
    """

    n_nodes: int
    links: dict[tuple[int, int], Link]
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

    ``check`` requires exact types: ``int`` ``p`` and ``d``, ``float`` ``omega_min``
    and ``epoch``, per-node fields that are each a ``tuple`` or ``list`` of
    ``float``, and a ``beta0`` ``dict`` from pairs of ``int`` to ``int``.
    """

    p: int
    d: int
    omega_min: float
    epoch: float
    theta0: tuple[float, ...]
    omega_u: tuple[float, ...]
    omega_init1: tuple[float, ...]
    omega_init2: tuple[float, ...]
    beta0: dict[tuple[int, int], int]


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


def too_many_nodes(n: int) -> str:
    """The ``value_out_of_range`` detail of an ``n_nodes`` of ``MAX_NODES`` or more."""
    return f"n_nodes={_shown(n)}, not below {MAX_NODES}"


def _typed(topology: Topology, params: SystemParams) -> list[Violation]:
    """Every value of a type that config loading never makes, as a
    ``wrong_type``; types are exact, so a bool is no int and an int no float.
    The walk takes the fields in the order the dataclasses declare them, a
    per-node field value by value, a mapping entry by entry in its own order.
    A key that is no pair of ints is named by its position (``keys[0]``), and
    its value is not read. A detail names the type found, never the value."""
    v: list[Violation] = []

    def want(subject: str, x, kind: str, *types: type) -> bool:
        """Whether ``x`` has one of ``types``; if not, its ``wrong_type``,
        which names a tuple's item types too (``tuple[int, str]``)."""
        if type(x) not in types:
            got = type(x).__name__
            got += f"[{', '.join(type(i).__name__ for i in x)}]" if type(x) is tuple else ""
            v.append(Violation("wrong_type", subject, f"expected {kind}, got {got}"))
        return type(x) in types

    def entries(subject: str, mapping):
        """The entries of a dict keyed by pairs of ints."""
        if want(subject, mapping, "a dict", dict):
            for pos, (key, x) in enumerate(mapping.items()):
                if type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int:
                    yield key, x
                else:  # no type is a pair of ints: always a wrong_type
                    want(f"{subject} keys[{pos}]", key, "a pair of ints")

    want("topology.n_nodes", topology.n_nodes, "an int", int)
    for ab, lk in entries("topology.links", topology.links):
        if want(_link(*ab), lk, "a Link", Link):
            want(f"{_link(*ab)} latency", lk.latency, "a float", float)
            want(f"{_link(*ab)} gearbox", lk.gearbox, "an int or a Fraction", int, Fraction)
    want("topology.buffer_capacity", topology.buffer_capacity, "None or an int", type(None), int)
    want("params.p", params.p, "an int", int)
    want("params.d", params.d, "an int", int)
    want("params.omega_min", params.omega_min, "a float", float)
    want("params.epoch", params.epoch, "a float", float)
    for name in _PER_NODE:
        vals = getattr(params, name)
        if want(f"params.{name}", vals, "a tuple or list of floats", tuple, list):
            for i, x in enumerate(vals):
                want(f"params.{name}[{i}]", x, "a float", float)
    for ab, b0 in entries("params.beta0", params.beta0):
        want(f"{_link(*ab)} beta0", b0, "an int", int)
    return v


def check(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint: the ``wrong_type`` violations of
    ``_typed`` alone if there are any, else those of ``rules``."""
    return _typed(topology, params) or rules(topology, params)


def rules(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint of the model's well-posedness rules
    on values of the types ``check`` requires, ints of any size included.
    Pure: the same inputs always produce the same report, in the same order:
    the scalars, node by node, then each link in sorted order, the rules on
    its own fields before its ``beta0``. A subject is formatted only for a
    violation."""
    v: list[Violation] = []
    n = topology.n_nodes
    if n < 1:
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
    # order, scanned whole and walked value by value only when the scan fails.
    finite = [params.omega_min, params.epoch, *theta0, *omega_u, *omega_init1, *omega_init2]
    finite += [lk.latency for lk in lks]
    if not all(map(isfinite, finite)):
        subjects = ["params.omega_min", "params.epoch"]
        for f, vals in zip(_PER_NODE, per_node):
            subjects += [f"params.{f}[{i}]" for i in range(len(vals))]
        subjects += [f"{_link(a, b)} latency" for a, b in keys]
        found = zip(subjects, finite)
        return v + [Violation("value_not_finite", s, repr(x)) for s, x in found if not isfinite(x)]

    cap = topology.buffer_capacity
    p, d, omega_min, epoch = params.p, params.d, params.omega_min, params.epoch
    if cap is not None and cap <= 0:
        v.append(Violation("capacity_nonpositive", "topology", f"buffer_capacity={_shown(cap)}"))
    # The replay counts frames against the capacity: bound it as p and d are.
    if cap is not None and cap > MAX_EXACT_INT:
        v.append(Violation("value_out_of_range", "topology.buffer_capacity", _INEXACT))
    if p <= 0:
        v.append(Violation("period_nonpositive", "params.p", f"p={_shown(p)}"))
    if d <= 0:
        v.append(Violation("delay_nonpositive", "params.d", f"d={_shown(d)}"))
    if d >= p:
        detail = f"d={_shown(d)} must be < p={_shown(p)}"
        v.append(Violation("delay_not_less_than_period", "params", detail))
    for subject, val in (("params.p", p), ("params.d", d)):
        if abs(val) > MAX_EXACT_INT:
            v.append(Violation("value_out_of_range", subject, _INEXACT))
    if omega_min <= 0.0:
        v.append(Violation("omega_min_nonpositive", "params.omega_min", f"{omega_min!r}"))
    if epoch >= 0.0:
        v.append(Violation("epoch_nonnegative", "params.epoch", f"epoch={epoch!r}"))

    wrong_length = [(f, len(vals)) for f, vals in zip(_PER_NODE, per_node) if len(vals) != n]
    for name, got in wrong_length:
        detail = f"expected {_shown(n)} per-node values, got {got}"
        v.append(Violation("param_length", f"params.{name}", detail))
    # Node-indexed rules would misindex a field of the wrong length.
    for i, th, w_u, w_1, w_2 in zip(range(1, n + 1), *per_node) if not wrong_length else ():
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
    lag = d / omega_min if omega_min > 0.0 and abs(d) <= MAX_EXACT_INT else None

    # The rules on a link's own fields are decided once per run of one ``Link`` object in
    # the sorted walk; each link of the run reports the run's findings under its own subject.
    run_of = None
    for ab, lk in zip(keys, lks):
        a, b = ab
        if lk is not run_of:
            run_of = lk
            g = lk.gearbox
            num, den = g.numerator, g.denominator  # a Fraction's properties: read once
            # (name, detail) of each rule the link breaks.
            found = []
            if lk.latency <= 0.0:
                found.append(("latency_nonpositive", f"latency={lk.latency!r}"))
            # A Fraction's denominator is positive, so its numerator has its sign.
            if num <= 0:
                shown = _shown(num) if den == 1 else f"{_shown(num)}/{_shown(den)}"
                found.append(("gearbox_nonpositive", f"gearbox={shown}"))
            if lag is not None and epoch > (bound := -(lk.latency + lag)):
                detail = f"epoch={epoch!r} must be <= {bound!r}"
                found.append(("epoch_too_late", detail))
            geared = num != den and num > 0
            gear_exact = geared and num <= MAX_EXACT_INT and den <= MAX_EXACT_INT

        in_range = 1 <= a <= n and 1 <= b <= n
        if a == b:
            v.append(Violation("self_link", _link(a, b), "links must join distinct nodes"))
        elif not in_range:
            detail = f"node ids must be in 1..{_shown(n)}"
            v.append(Violation("link_unknown_node", _link(a, b), detail))
        else:
            if (b, a) not in links:
                detail = f"reverse {_link(b, a)} missing"
                v.append(Violation("link_unpaired", _link(a, b), detail))
            for name, detail in found:
                v.append(Violation(name, _link(a, b), detail))

        if beta0_ok:
            b0 = beta0[ab]
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
        for node in (a, b) if not wrong_length else ():
            scaled = theta0[node - 1] * num / den
            if not isfinite(scaled):
                detail = f"gearbox {g} scales node {node} theta0 to {scaled!r}"
                v.append(Violation("value_out_of_range", _link(a, b), detail))
            elif not FRACTIONAL_GUARD <= scaled % 1.0 <= 1.0 - FRACTIONAL_GUARD:
                detail = f"gearbox {g} puts node {node} scaled phase {scaled!r} on a frame boundary"
                v.append(Violation("gearbox_phase_boundary", _link(a, b), detail))
    return v


def validate(topology: Topology, params: SystemParams) -> Scenario:
    """Return an immutable scenario, or raise with ``check``'s violation list."""
    violations = check(topology, params)
    if violations:
        raise ValidationError(violations)
    return Scenario(topology=topology, params=params)
