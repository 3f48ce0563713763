"""``check`` against a plain reference walk of every value and every link.

``reference_check`` below visits each node and each link and decides every
rule there. ``topology.check`` is the same walk with two more mechanisms: it
decides the rules on a link's own fields once per run of one shared
``Link``, and scans the finite-value rule over one whole column before it
walks any value. An ``n_nodes``, ``buffer_capacity``, ``p``, ``d`` or
``beta0`` that is not an ``int`` is a ``wrong_type`` in place of that
value's other rules, and so is a value of a float field that no float holds
(an int too large for one, or not a number). An ``n_nodes`` of
``MAX_NODES`` or more is out of range, and an int too long to print is
reported by its sign and bit length. The property draws small graphs (self links, unknown nodes, unpaired links), a
pool of one to three ``Link`` objects that the links share, copy as equal
objects, or take in turn, and values on both sides of every threshold; both
walks must give the same violations, names, subjects and details, in the
same order.
"""

from dataclasses import replace
from fractions import Fraction
from math import floor, inf, isfinite, nan, nextafter
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from afmsim.topology import (
    FRACTIONAL_GUARD,
    MAX_EXACT_INT,
    MAX_NODES,
    Link,
    SystemParams,
    Topology,
    Violation,
    check,
)


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


def _shown(x: int) -> str:
    """``str(x)``, or for an int of more than 2000 bits (past which some
    setting of Python's int-to-str limit refuses it) its sign and bit length."""
    if -(2**2000) < x < 2**2000:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


def _subject(a: int, b: int) -> str:
    return f"link ({_shown(a)},{_shown(b)})"


def _pairs(keys) -> str:
    """A sorted list of link keys as ``repr`` prints pairs of ints, each id
    through ``_shown``."""
    return "[" + ", ".join(f"({_shown(a)}, {_shown(b)})" for a, b in keys) + "]"


_PER_NODE = ("theta0", "omega_u", "omega_init1", "omega_init2")
_latency = attrgetter("latency")


def _no_float(x) -> str | None:
    """Why ``x`` is no float, as the detail of its ``wrong_type``: an int too
    large for one, which is not printed, or not a number; else None."""
    try:
        isfinite(x)
    except OverflowError:
        return "expected a number, got a value too large for a float"
    except TypeError:
        return f"expected a number, got {x!r}"
    return None


def _finite(x) -> bool:
    return _no_float(x) is None and isfinite(x)


def reference_check(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint of the model's well-posedness rules.

    Pure: the same inputs always produce the same report, in the same order:
    the scalars, the per-node fields, then each link in sorted order. A
    subject string is formatted only for a violation.
    """
    v: list[Violation] = []
    n = topology.n_nodes
    # An n_nodes of another type than int is reported in place of the rules
    # that read it; no node-indexed rule runs without a node count.
    n_int = type(n) is int
    if not n_int:
        v.append(Violation("wrong_type", "topology.n_nodes", f"expected an integer, got {n!r}"))
    elif n < 1:
        v.append(Violation("node_count_nonpositive", "topology", f"n_nodes={_shown(n)}"))
    elif n >= MAX_NODES:
        detail = f"n_nodes={n}, not below {MAX_NODES}"
        v.append(Violation("value_out_of_range", "topology.n_nodes", detail))
    links = topology.links
    items = sorted(links.items())
    per_node = [getattr(params, name) for name in _PER_NODE]

    # NaN/inf poison every downstream comparison and floor; refuse them up
    # front and skip the value checks they would corrupt. A whole field is
    # scanned at once; only a field that fails is walked value by value.
    scalars = [("params.omega_min", params.omega_min), ("params.epoch", params.epoch)]
    not_finite = [(subject, val) for subject, val in scalars if not _finite(val)]
    for name, vals in zip(_PER_NODE, per_node):
        if not all(map(_finite, vals)):
            not_finite += [
                (f"params.{name}[{i}]", val) for i, val in enumerate(vals) if not _finite(val)
            ]
    if not all(map(_finite, map(_latency, links.values()))):
        not_finite += [
            (f"{_subject(a, b)} latency", lk.latency)
            for (a, b), lk in items
            if not _finite(lk.latency)
        ]
    if not_finite:
        return v + [
            Violation("wrong_type", s, _no_float(val))
            if _no_float(val)
            else Violation("value_not_finite", s, f"{val!r}")
            for s, val in not_finite
        ]

    cap = topology.buffer_capacity
    p, d, omega_min, epoch = params.p, params.d, params.omega_min, params.epoch
    # A capacity of another type than int is reported in place of every rule on it.
    if cap is not None and type(cap) is not int:
        detail = f"expected an integer, got {cap!r}"
        v.append(Violation("wrong_type", "topology.buffer_capacity", detail))
        cap = None
    if cap is not None and cap <= 0:
        v.append(Violation("capacity_nonpositive", "topology", f"buffer_capacity={_shown(cap)}"))
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
        if typed and not _exact(val):
            v.append(Violation("value_out_of_range", subject, _INEXACT))
    if omega_min <= 0.0:
        v.append(Violation("omega_min_nonpositive", "params.omega_min", f"{omega_min!r}"))
    if epoch >= 0.0:
        v.append(Violation("epoch_nonnegative", "params.epoch", f"epoch={epoch!r}"))

    wrong_length = [
        (name, len(vals)) for name, vals in zip(_PER_NODE, per_node) if n_int and len(vals) != n
    ]
    for name, got in wrong_length:
        v.append(
            Violation(
                "param_length", f"params.{name}", f"expected {_shown(n)} per-node values, got {got}"
            )
        )
    # Node-indexed checks would misindex a field of the wrong length.
    indexed = n_int and not wrong_length
    for i, th, w_u, w_1, w_2 in zip(topology.nodes(), *per_node) if indexed else ():
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
        detail = f"missing={_pairs(missing)} extra={_pairs(extra)}"
        v.append(Violation("beta0_keys_mismatch", "params.beta0", detail))
    # The epoch bound needs d / omega_min, which only a positive floor and an
    # exact d make meaningful.
    lag = d / omega_min if omega_min > 0.0 and d_int and _exact(d) else None

    for ab, lk in items:
        a, b = ab
        in_range = not n_int or (1 <= a <= n and 1 <= b <= n)
        # Only exact ratios are gearboxes; a float has no numerator to read.
        # The identity test passes the usual Fraction at the lowest cost.
        g = lk.gearbox
        gear_ok = type(g) is Fraction or isinstance(g, (int, Fraction))
        # A Fraction's numerator and denominator are properties: read them
        # once. A gearbox of the wrong type reads as 1/1, which has no guard.
        num, den = (g.numerator, g.denominator) if gear_ok else (1, 1)
        if a == b:
            v.append(Violation("self_link", _subject(a, b), "links must join distinct nodes"))
        elif not in_range:
            detail = f"node ids must be in 1..{_shown(n)}"
            v.append(Violation("link_unknown_node", _subject(a, b), detail))
        else:
            if (b, a) not in links:
                detail = f"reverse {_subject(b, a)} missing"
                v.append(Violation("link_unpaired", _subject(a, b), detail))
            latency = lk.latency
            if latency <= 0.0:
                detail = f"latency={latency!r}"
                v.append(Violation("latency_nonpositive", _subject(a, b), detail))
            if not gear_ok:
                detail = f"expected an int or a Fraction, got {g!r}"
                v.append(Violation("wrong_type", f"{_subject(a, b)} gearbox", detail))
            # A Fraction's denominator is positive, so its numerator has its sign.
            elif num <= 0:
                shown = _shown(num) if den == 1 else f"{_shown(num)}/{_shown(den)}"
                v.append(Violation("gearbox_nonpositive", _subject(a, b), f"gearbox={shown}"))
            if lag is not None and epoch > (bound := -(latency + lag)):
                detail = f"epoch={epoch!r} must be <= {bound!r}"
                v.append(Violation("epoch_too_late", _subject(a, b), detail))

        if beta0_ok:
            b0 = beta0[ab]
            if type(b0) is not int:
                detail = f"expected an integer, got {b0!r}"
                v.append(Violation("wrong_type", f"{_subject(a, b)} beta0", detail))
            else:
                if b0 < 0:
                    v.append(Violation("beta0_negative", _subject(a, b), f"beta0={_shown(b0)}"))
                if not _exact(b0):
                    v.append(Violation("value_out_of_range", f"{_subject(a, b)} beta0", _INEXACT))
                if cap is not None and b0 > cap:
                    detail = f"beta0={_shown(b0)} > capacity={_shown(cap)}"
                    v.append(Violation("beta0_exceeds_capacity", _subject(a, b), detail))

        # Gearboxes scale the phases that get floored, so the same boundary
        # guard that applies to theta0 must hold for the scaled phases too.
        if num == den or num <= 0 or not in_range:
            continue
        if not (_exact(num) and _exact(den)):
            v.append(Violation("value_out_of_range", f"{_subject(a, b)} gearbox", _INEXACT))
            continue
        for node in (a, b) if indexed else ():
            scaled = params.theta0[node - 1] * num / den
            if not isfinite(scaled):
                v.append(
                    Violation(
                        "value_out_of_range",
                        _subject(a, b),
                        f"gearbox {g} scales node {node} theta0 to {scaled!r}",
                    )
                )
            elif _fractional_violation(scaled) is not None:
                v.append(
                    Violation(
                        "gearbox_phase_boundary",
                        _subject(a, b),
                        f"gearbox {g} puts node {node} scaled phase {scaled!r} on a frame boundary",
                    )
                )
    return v


G = FRACTIONAL_GUARD
# An int too long for Python's default int-to-str limit (4300 digits).
LONG = 10**5000
# Each field's values come as (breaking no rule, breaking one); a drawn
# field keeps to the first list seven times in eight, so whole scenarios
# that pass every scan are drawn too.
LATENCIES = ([1.0, 0.5, 2.0], [-1.0, -0.0, 0.0])
GEARBOXES = (
    [Fraction(1), 1, 2, Fraction(3, 2), Fraction(1, 2)],
    [
        Fraction(0),
        Fraction(-1),
        2.0,
        Fraction(2**60 + 1, 2**60),
        Fraction(3, 2**54),
        Fraction(-LONG, 3),
    ],
)
# theta0 on both sides of the guard around an integer, and values whose
# 3/2, 1/2 or 2 scaling lands on a frame boundary.
THETA0 = (
    [0.1, 0.25, 0.45, 1.3, G, 1.0 - G, 1.0 + 2 * G],
    [
        0.0,
        -0.5,
        1.0,
        2.0,
        nextafter(G, 0.0),
        nextafter(1.0 - G, 1.0),
        1.0 + G / 2,
        3.0 - G / 2,
        1 / 3,
        2 / 3,
        1e300,
    ],
)
NOT_FINITE = [nan, inf, -inf]
# Values of a float field that no float holds.
NO_FLOAT = [10**400, -(10**400), 10**5000, "x", None]


@st.composite
def values(draw, kinds):
    """A strategy for the values of one field: the good ones only, or any."""
    good, bad = kinds
    return st.sampled_from(good if draw(st.sampled_from([True] * 7 + [False])) else good + bad)


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([3, 1, 2, 4, 5, 0]))
    # Node ids 0 and n + 1 are unknown; a == b is a self link; an edge
    # drawn with one direction is unpaired.
    wild = draw(st.sampled_from([False, False, True]))
    ids = st.integers(0, n + 1) if wild else st.integers(1, max(n, 1))
    edges = draw(st.lists(st.tuples(ids, ids, st.integers(0, 4)), max_size=8))
    keys = {}
    for a, b, paired in edges:
        if wild or a != b:
            keys[(a, b)] = None
            if paired or not wild:
                keys[(b, a)] = None
    keys = list(keys)

    pool = draw(
        st.lists(
            st.builds(Link, draw(values(LATENCIES)), draw(values(GEARBOXES))),
            min_size=1,
            max_size=3,
        )
    )
    mode = draw(st.sampled_from(["shared", "equal", "alternating", "drawn"]))
    chosen = {}
    for k, key in enumerate(sorted(keys)):
        if mode == "shared":
            chosen[key] = pool[0]
        elif mode == "equal":
            chosen[key] = replace(pool[k % len(pool)])
        elif mode == "alternating":
            chosen[key] = pool[k % len(pool)]
        else:
            chosen[key] = draw(st.sampled_from(pool))
    links = {key: chosen[key] for key in keys}

    p = draw(draw(values(([10], [0, 3, 2**53 + 1, 10.5, 10.0, True, -LONG]))))
    d = draw(draw(values(([2], [0, 10, 2**53 + 1, 2.5, 2.0, False, -LONG]))))
    omega_min = draw(draw(values(([0.1, 0.5], [0.0]))))
    # The epoch at, just inside and just outside each link's bound.
    epochs = [-25.0, -1.0, 0.0]
    if omega_min > 0.0 and -MAX_EXACT_INT <= d <= MAX_EXACT_INT:
        for lk in pool:
            bound = -(lk.latency + d / omega_min)
            epochs += [bound, nextafter(bound, inf), nextafter(bound, -inf)]
    epoch = draw(st.sampled_from(epochs))

    frequencies = ([1.1, 1.5, 2.0, nextafter(omega_min, inf)], [omega_min, 0.0, -1.0, 1e308])
    lengths = [n] * 4
    longer = draw(st.sampled_from([None] * 20 + [0, 1, 2, 3]))
    if longer is not None:
        lengths[longer] += 1
    fields = [
        draw(st.lists(draw(values(kinds)), min_size=k, max_size=k))
        for kinds, k in zip([THETA0] + [frequencies] * 3, lengths)
    ]

    cap = draw(draw(values(([None, 50], [10, 0, -1, 2**53 + 1, 100.0, nan, True, -LONG]))))
    beta0_values = (
        [0, 5, 10],
        [-1, 2**53, 2**53 + 1, -(2**53) - 1, nan, 1.5, -2.0, True, "5", -LONG],
    )
    if type(cap) is int:
        beta0_values[1].extend([cap, cap + 1])
    beta0_value = draw(values(beta0_values))
    beta0 = {key: draw(beta0_value) for key in keys}
    keys_off = draw(st.sampled_from([None] * 9 + ["missing", "extra"]))
    if keys_off == "missing" and keys:
        del beta0[keys[0]]
    elif keys_off == "extra":
        beta0[(n + 2, n + 3)] = 0

    # Now and then one value that is not finite, or no float at all.
    poison = draw(st.sampled_from([None] * 30 + list(range(7))))
    bad = st.sampled_from(NOT_FINITE + NO_FLOAT)
    if poison is None:
        pass
    elif poison < 4 and fields[poison]:
        fields[poison][draw(st.integers(0, len(fields[poison]) - 1))] = draw(bad)
    elif poison == 4 and keys:
        links[keys[0]] = Link(draw(bad), links[keys[0]].gearbox)
    elif poison == 5:
        epoch = draw(bad)
    elif poison == 6:
        omega_min = draw(bad)

    # Now and then a node count of another type, equal to n or not, one at or
    # just below the bound, or one too long to print.
    n_nodes = draw(st.sampled_from([n] * 20 + [float(n), True, MAX_NODES - 1, MAX_NODES, -LONG]))
    topology = Topology(n_nodes=n_nodes, links=links, buffer_capacity=cap)
    params = SystemParams(p, d, omega_min, epoch, *map(tuple, fields), beta0=beta0)
    return topology, params


def ring(latency):
    """A 256-node ring whose 512 links all share one ``Link``."""
    n = 256
    lk = Link(latency=latency)
    links = {}
    for i in range(1, n + 1):
        j = i % n + 1
        links[(i, j)] = links[(j, i)] = lk
    theta0 = tuple(0.1 + (i % 8) / 10 for i in range(n))
    omega = (1.5,) * n
    params = SystemParams(
        10, 2, 0.1, -25.0, theta0, omega, omega, omega, beta0=dict.fromkeys(links, 50)
    )
    return Topology(n_nodes=n, links=links), params


def triangle(gearbox=Fraction(1), **overrides):
    """A 3-node triangle that passes every check, with ``params`` overrides."""
    lk = Link(latency=1.0, gearbox=gearbox)
    links = {(a, b): lk for a in (1, 2, 3) for b in (1, 2, 3) if a != b}
    omega = (1.1, 1.4, 2.0)
    params = SystemParams(
        10, 2, 0.1, -25.0, (0.1, 0.2, 0.3), omega, omega, omega, beta0=dict.fromkeys(links, 5)
    )
    return Topology(n_nodes=3, links=links), replace(params, **overrides)


def long_triangle(x):
    """The triangle with ``p``, ``d``, ``buffer_capacity``, ``n_nodes`` and
    every ``beta0`` at ``x``."""
    topology, params = triangle()
    params = replace(params, p=x, d=x, beta0=dict.fromkeys(params.beta0, x))
    return replace(topology, n_nodes=x, buffer_capacity=x), params


def long_id_triangle(beta0=True, latency=1.0):
    """The triangle with links (LONG, 1) and (1, LONG) of this latency, with
    ``beta0`` entries for them or without."""
    topology, params = triangle()
    lk = Link(latency=latency)
    links = {**topology.links, (LONG, 1): lk, (1, LONG): lk}
    fill = dict.fromkeys(links, 5) if beta0 else params.beta0
    return replace(topology, links=links), replace(params, beta0=fill)


@settings(max_examples=300)
@given(scenarios())
@example(ring(-1.0))
@example(ring(1.0))
# One value past each scan, every other value passing: the history start
# overflows, a NaN occupancy is not the first, a gearbox's denominator alone
# is inexact, and values at the guard and at omega_min.
@example(triangle(omega_init2=(1.1, 1e308, 2.0)))
@example(triangle(beta0={(1, 2): 5, (1, 3): nan, (2, 1): 5, (2, 3): 5, (3, 1): 5, (3, 2): 5}))
@example(triangle(gearbox=Fraction(3, 2**54)))
@example(triangle(theta0=(G, 1.0 - G, 2.0 + G)))
@example(triangle(theta0=(0.1, nextafter(1.0 - G, 1.0), 0.3)))
@example(triangle(omega_init1=(1.1, 0.1, 2.0)))
# A float node count in place of its rules, and of the node rules it would index.
@example((Topology(3.0, triangle()[0].links), triangle(theta0=(1.0, 0.2, 0.3))[1]))
# Values of float fields that no float holds, each a wrong_type where the scan
# raised; and a float capacity in place of its rules and of beta0's bound by it.
@example(triangle(theta0=(10**400, 0.2, 0.3)))
@example(triangle(omega_min=10**400, epoch=nan))
@example(triangle(theta0=("x", 0.2, 0.3)))
@example((replace(triangle()[0], buffer_capacity=100.0), triangle()[1]))
@example((replace(triangle()[0], buffer_capacity=4.0), triangle()[1]))
# Node counts at and just below the bound.
@example((replace(triangle()[0], n_nodes=MAX_NODES), triangle()[1]))
@example((replace(triangle()[0], n_nodes=MAX_NODES - 1), triangle()[1]))
def test_check_matches_the_reference_walk(case):
    topology, params = case
    assert check(topology, params) == reference_check(topology, params)


# Ints too long to print in every rule that prints one, a gearbox's numerator
# among them. Hypothesis prints its explicit examples, which it cannot do for
# these, so they are plain cases.
@pytest.mark.parametrize(
    "case",
    [
        long_triangle(-LONG),
        (triangle()[0], triangle(d=LONG, p=LONG - 1)[1]),
        triangle(gearbox=Fraction(-LONG, 3)),
        long_id_triangle(),
        long_id_triangle(beta0=False),
        long_id_triangle(latency=nan),
    ],
    ids=[
        "every_int_field",
        "d_not_below_p",
        "gearbox_numerator",
        "link_node_id",
        "link_node_id_without_beta0",
        "link_node_id_latency",
    ],
)
def test_check_matches_the_reference_walk_on_ints_too_long_to_print(case):
    assert check(*case) == reference_check(*case)


def test_an_int_too_long_to_print_is_shown_by_its_bit_length():
    # Each rule reports as it does for an int it can print, under the same
    # names and subjects in the same order; only the value is shown shorter.
    long, short = check(*long_triangle(-LONG)), check(*long_triangle(-(2**53) - 1))
    assert [(v.name, v.subject) for v in long] == [(v.name, v.subject) for v in short]
    details = {v.detail for v in long}
    assert "p=-<16610-bit integer>" in details
    assert "d=-<16610-bit integer> must be < p=-<16610-bit integer>" in details
    assert "n_nodes=-<16610-bit integer>" in details
    assert "beta0=-<16610-bit integer>" in details
    assert "buffer_capacity=-<16610-bit integer>" in details
    gear = check(*triangle(gearbox=Fraction(-LONG, 3)))
    assert {v.detail for v in gear} == {"gearbox=-<16610-bit integer>/3"}


def test_a_node_id_too_long_to_print_is_shown_by_its_bit_length():
    long = "<16610-bit integer>"
    found = [(v.name, v.subject, v.detail) for v in check(*long_id_triangle())]
    assert found == [
        ("link_unknown_node", "link (1,%s)" % long, "node ids must be in 1..3"),
        ("link_unknown_node", "link (%s,1)" % long, "node ids must be in 1..3"),
    ]
    keys = check(*long_id_triangle(beta0=False))[0]
    assert keys.name == "beta0_keys_mismatch"
    assert keys.detail == f"missing=[(1, {long}), ({long}, 1)] extra=[]"
    subjects = [v.subject for v in check(*long_id_triangle(latency=nan))]
    assert subjects == [f"link (1,{long}) latency", f"link ({long},1) latency"]
    # Ordinary ids print as before, the key lists as ``repr`` prints them,
    # and a key that is not a pair as its own ``repr``.
    topology, params = triangle()
    beta0 = {**params.beta0, 5: 0}
    del beta0[(1, 2)]
    (keys,) = check(topology, replace(params, beta0=beta0))
    assert keys.detail == "missing=[(1, 2)] extra=[5]"
    links = {(1, 2): Link(latency=1.0)}
    (unpaired,) = check(replace(topology, links=links), replace(params, beta0={(1, 2): 5}))
    assert (unpaired.name, unpaired.subject) == ("link_unpaired", "link (1,2)")
    assert unpaired.detail == "reverse link (2,1) missing"


def test_a_node_count_at_the_bound_is_out_of_range():
    topology, params = triangle()
    assert check(replace(topology, n_nodes=MAX_NODES - 1), params)[0].name == "param_length"
    found = check(replace(topology, n_nodes=MAX_NODES), params)[0]
    assert (found.name, found.subject) == ("value_out_of_range", "topology.n_nodes")
    assert found.detail == f"n_nodes={MAX_NODES}, not below {MAX_NODES}"


def test_a_shared_link_reports_under_each_link():
    topology, params = ring(-1.0)
    violations = check(topology, params)
    subjects = [f"link ({a},{b})" for a, b in sorted(topology.links)]
    assert [v.subject for v in violations] == subjects
    assert {(v.name, v.detail) for v in violations} == {("latency_nonpositive", "latency=-1.0")}
