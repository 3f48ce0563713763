"""``check`` against a plain reference walk of every value and every link,
and the typed boundary in front of the model's rules.

On well-typed input, ``check`` gives the report of ``topology.rules``.
``reference_check`` below visits each node and each link and decides every
rule there. ``rules`` is the same walk with two more mechanisms: it decides
the rules on a link's own fields once per run of one shared ``Link``, and
scans the finite-value rule over one whole column before it walks any value.
An ``n_nodes`` of ``MAX_NODES`` or more is out of range, and an int too long
to print is reported by its sign and bit length. The property draws
well-typed small graphs (self links, unknown nodes, unpaired links), a pool
of one to three ``Link`` objects that the links share, copy as equal
objects, or take in turn, and values on both sides of every threshold, ints
too long to print among them; both walks must give the same violations,
names, subjects and details, in the same order.

A second property puts a value of a type or shape that config loading never
makes into one or two fields of such a draw: ``check`` must report only
``wrong_type`` violations, at least one, and never raise. Every config that
loads is well typed, so the typed walk finds nothing in it.
"""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from math import floor, inf, isfinite, nan, nextafter
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from afmsim import load_config
from afmsim.scenarios import random_scenario, triangle3
from afmsim.topology import (
    FRACTIONAL_GUARD,
    MAX_EXACT_INT,
    MAX_NODES,
    Link,
    SystemParams,
    Topology,
    ValidationError,
    Violation,
    _typed,
    check,
    validate,
)

from conftest import SRC


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


def reference_check(topology: Topology, params: SystemParams) -> list[Violation]:
    """Collect every violated constraint of the model's well-posedness rules
    on well-typed values.

    Pure: the same inputs always produce the same report, in the same order:
    the scalars, the per-node fields, then each link in sorted order. A
    subject string is formatted only for a violation.
    """
    v: list[Violation] = []
    n = topology.n_nodes
    if n < 1:
        v.append(Violation("node_count_nonpositive", "topology", f"n_nodes={_shown(n)}"))
    elif n >= MAX_NODES:
        detail = f"n_nodes={_shown(n)}, not below {MAX_NODES}"
        v.append(Violation("value_out_of_range", "topology.n_nodes", detail))
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
            (f"{_subject(a, b)} latency", lk.latency)
            for (a, b), lk in items
            if not isfinite(lk.latency)
        ]
    if not_finite:
        return v + [Violation("value_not_finite", s, f"{val!r}") for s, val in not_finite]

    cap = topology.buffer_capacity
    p, d, omega_min, epoch = params.p, params.d, params.omega_min, params.epoch
    if cap is not None and cap <= 0:
        v.append(Violation("capacity_nonpositive", "topology", f"buffer_capacity={_shown(cap)}"))
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
        if not _exact(val):
            v.append(Violation("value_out_of_range", subject, _INEXACT))
    if omega_min <= 0.0:
        v.append(Violation("omega_min_nonpositive", "params.omega_min", f"{omega_min!r}"))
    if epoch >= 0.0:
        v.append(Violation("epoch_nonnegative", "params.epoch", f"epoch={epoch!r}"))

    wrong_length = [(name, len(vals)) for name, vals in zip(_PER_NODE, per_node) if len(vals) != n]
    for name, got in wrong_length:
        v.append(
            Violation(
                "param_length", f"params.{name}", f"expected {_shown(n)} per-node values, got {got}"
            )
        )
    # Node-indexed checks would misindex a field of the wrong length.
    indexed = not wrong_length
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
    lag = d / omega_min if omega_min > 0.0 and _exact(d) else None

    for ab, lk in items:
        a, b = ab
        in_range = 1 <= a <= n and 1 <= b <= n
        g = lk.gearbox
        num, den = g.numerator, g.denominator
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
            # A Fraction's denominator is positive, so its numerator has its sign.
            if num <= 0:
                shown = _shown(num) if den == 1 else f"{_shown(num)}/{_shown(den)}"
                v.append(Violation("gearbox_nonpositive", _subject(a, b), f"gearbox={shown}"))
            if lag is not None and epoch > (bound := -(latency + lag)):
                detail = f"epoch={epoch!r} must be <= {bound!r}"
                v.append(Violation("epoch_too_late", _subject(a, b), detail))

        if beta0_ok:
            b0 = beta0[ab]
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
        0,
        -2,
        Fraction(2**60 + 1, 2**60),
        Fraction(3, 2**54),
        Fraction(-LONG, 3),
        LONG,
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
    ids = st.integers(0, n + 1) | st.just(LONG) if wild else st.integers(1, max(n, 1))
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

    p = draw(draw(values(([10], [0, 3, 2**53 + 1, -LONG]))))
    d = draw(draw(values(([2], [0, 10, 2**53 + 1, -LONG]))))
    omega_min = draw(draw(values(([0.1, 0.5], [0.0]))))
    # The epoch at, just inside and just outside each link's bound.
    epochs = [-25.0, -1.0, 0.0]
    if omega_min > 0.0 and _exact(d):
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

    cap = draw(draw(values(([None, 50], [10, 0, -1, 2**53 + 1, -LONG]))))
    beta0_values = ([0, 5, 10], [-1, 2**53, 2**53 + 1, -(2**53) - 1, -LONG, LONG])
    if cap is not None:
        beta0_values[1].extend([cap, cap + 1])
    beta0_value = draw(values(beta0_values))
    beta0 = {key: draw(beta0_value) for key in keys}
    keys_off = draw(st.sampled_from([None] * 9 + ["missing", "extra"]))
    if keys_off == "missing" and keys:
        del beta0[keys[0]]
    elif keys_off == "extra":
        beta0[(n + 2, n + 3)] = 0

    # Now and then one value that is not finite.
    poison = draw(st.sampled_from([None] * 30 + list(range(7))))
    bad = st.sampled_from(NOT_FINITE)
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

    # Now and then a node count at or just below the bound, or one too long
    # to print. A per-node field is a tuple, as config makes it, or a list.
    n_nodes = draw(st.sampled_from([n] * 20 + [MAX_NODES - 1, MAX_NODES, -LONG, LONG]))
    topology = Topology(n_nodes=n_nodes, links=links, buffer_capacity=cap)
    fields = map(draw(st.sampled_from([tuple, list])), fields)
    params = SystemParams(p, d, omega_min, epoch, *fields, beta0=beta0)
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
# overflows, a gearbox's denominator alone is inexact, and values at the
# guard and at omega_min.
@example(triangle(omega_init2=(1.1, 1e308, 2.0)))
@example(triangle(gearbox=Fraction(3, 2**54)))
@example(triangle(theta0=(G, 1.0 - G, 2.0 + G)))
@example(triangle(theta0=(0.1, nextafter(1.0 - G, 1.0), 0.3)))
@example(triangle(omega_init1=(1.1, 0.1, 2.0)))
# A capacity below every beta0, and a non-finite value past a capacity rule.
@example((replace(triangle()[0], buffer_capacity=4), triangle()[1]))
@example((replace(triangle()[0], buffer_capacity=-1), triangle(epoch=nan)[1]))
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
    # Ordinary ids print as before, and the key lists as ``repr`` prints them.
    topology, params = triangle()
    beta0 = {**params.beta0, (4, 5): 0}
    del beta0[(1, 2)]
    (keys,) = check(topology, replace(params, beta0=beta0))
    assert keys.detail == "missing=[(1, 2)] extra=[(4, 5)]"
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


# Values of a type or shape that config loading never makes, field by field.
NOT_INT = [3.0, 10.5, nan, True, False, None, "3", Fraction(3)]
NOT_FLOAT = [1, 0, 10**400, -LONG, True, None, "x", Fraction(1, 2)]
NOT_GEARBOX = [True, False, 2.0, 1.0, None, "1"]
NOT_PAIR = [5, LONG, (), (1,), (1, 2, 3), (1, "x"), ("x", 1), (1.5, 3), (True, 2), "12", None]
NOT_DICT = [None, [], [((1, 2), 5)], "links", 0, frozenset()]
NOT_SEQUENCE = [None, 0.1, "abc", {0: 0.1}, range(3)]


def _mapping(draw, mapping: dict, values: list):
    """``mapping`` as something that is no dict, or with one more key that
    is no pair of ints, or with one value drawn from ``values``."""
    how = draw(st.sampled_from(["not_dict", "key", "value"] if mapping else ["not_dict", "key"]))
    if how == "not_dict":
        return draw(st.sampled_from(NOT_DICT))
    if how == "key":
        return {**mapping, draw(st.sampled_from(NOT_PAIR)): next(iter(mapping.values()), 0)}
    return {**mapping, draw(st.sampled_from(sorted(mapping))): draw(st.sampled_from(values))}


def _wrong_links(draw, topology, params):
    links = topology.links
    lk = draw(st.sampled_from(list(links.values()) or [Link(1.0)]))
    bad_links = [None, (1.0, 1), 1.0, "link"]
    bad_links += [Link(x, lk.gearbox) for x in NOT_FLOAT]
    bad_links += [Link(lk.latency, g) for g in NOT_GEARBOX]
    return replace(topology, links=_mapping(draw, links, bad_links)), params


def _wrong_per_node(name):
    def wrong(draw, topology, params):
        vals = getattr(params, name)
        if not vals or draw(st.booleans()):
            return topology, replace(params, **{name: draw(st.sampled_from(NOT_SEQUENCE))})
        vals = list(vals)
        vals[draw(st.integers(0, len(vals) - 1))] = draw(st.sampled_from(NOT_FLOAT))
        return topology, replace(params, **{name: draw(st.sampled_from([tuple, list]))(vals)})

    return wrong


def _wrong_field(owner, name, values):
    def wrong(draw, topology, params):
        value = draw(st.sampled_from(values))
        if owner == "topology":
            return replace(topology, **{name: value}), params
        return topology, replace(params, **{name: value})

    return wrong


WRONG = {
    "n_nodes": _wrong_field("topology", "n_nodes", NOT_INT),
    "links": _wrong_links,
    "buffer_capacity": _wrong_field("topology", "buffer_capacity", [100.0, 1.5, nan, True, "5"]),
    "p": _wrong_field("params", "p", NOT_INT),
    "d": _wrong_field("params", "d", NOT_INT),
    "omega_min": _wrong_field("params", "omega_min", NOT_FLOAT),
    "epoch": _wrong_field("params", "epoch", NOT_FLOAT),
    **{name: _wrong_per_node(name) for name in _PER_NODE},
    "beta0": lambda draw, topology, params: (
        topology,
        replace(params, beta0=_mapping(draw, params.beta0, NOT_INT + [1.5, -2.0])),
    ),
}


@st.composite
def ill_typed(draw):
    """A well-typed draw with one or two fields given a wrong type or shape."""
    topology, params = draw(scenarios())
    fields = st.lists(st.sampled_from(sorted(WRONG)), min_size=1, max_size=2, unique=True)
    for field in draw(fields):
        topology, params = WRONG[field](draw, topology, params)
    return topology, params


@settings(max_examples=100)
@given(ill_typed())
def test_wrong_types_are_reported_alone_and_never_raise(case):
    found = check(*case)
    assert found and {v.name for v in found} == {"wrong_type"}
    with pytest.raises(ValidationError) as err:
        validate(*case)
    assert err.value.violations == found


def _triangle_with(links=(), entries=None):
    """The test triangle with extra links, each with a ``beta0`` of 5, and
    extra ``beta0`` entries."""
    topology, params = triangle()
    extra = dict.fromkeys(links, Link(latency=1.0))
    beta0 = {**params.beta0, **dict.fromkeys(extra, 5), **(entries or {})}
    return replace(topology, links={**topology.links, **extra}), replace(params, beta0=beta0)


def _edge_1_3_as(a, b):
    """The test triangle with edge 1--3 replaced by the links (a, b) and
    (b, a), each with a ``beta0`` of 5."""
    topology, params = triangle()
    links = {ab: lk for ab, lk in topology.links.items() if 2 in ab}
    links |= {(a, b): Link(latency=1.0), (b, a): Link(latency=1.0)}
    return replace(topology, links=links), replace(params, beta0=dict.fromkeys(links, 5))


# Hand-built inputs that raised from ``check``, or passed it and crashed
# ``simulate``, before types were checked ahead of the rules. Each gives
# exactly these violations now.
NAMED = {
    # TypeError: '<' not supported, from sorting the beta0 key sets.
    "mixed_beta0_keys": (
        _triangle_with(entries={5: 0, (4, 5): 0}),
        [("params.beta0 keys[6]", "expected a pair of ints, got int")],
    ),
    # TypeError from sorted(links).
    "mixed_link_keys": (
        _edge_1_3_as(1, "x"),
        [
            ("topology.links keys[4]", "expected a pair of ints, got tuple[int, str]"),
            ("topology.links keys[5]", "expected a pair of ints, got tuple[str, int]"),
            ("params.beta0 keys[4]", "expected a pair of ints, got tuple[int, str]"),
            ("params.beta0 keys[5]", "expected a pair of ints, got tuple[str, int]"),
        ],
    ),
    # ValueError: too many values to unpack.
    "triple_link_key": (
        _triangle_with(links=[(1, 2, 3)]),
        [
            ("topology.links keys[6]", "expected a pair of ints, got tuple[int, int, int]"),
            ("params.beta0 keys[6]", "expected a pair of ints, got tuple[int, int, int]"),
        ],
    ),
    # ValueError: Exceeds the limit (4300 digits), printing the extra key.
    "long_beta0_key": (
        _triangle_with(entries={LONG: 0}),
        [("params.beta0 keys[6]", "expected a pair of ints, got int")],
    ),
    # TypeError or AttributeError on a field that is None.
    "none_fields": (
        (
            replace(triangle()[0], links=None),
            replace(triangle()[1], theta0=None, beta0=None),
        ),
        [
            ("topology.links", "expected a dict, got NoneType"),
            ("params.theta0", "expected a tuple or list of floats, got NoneType"),
            ("params.beta0", "expected a dict, got NoneType"),
        ],
    ),
    # check returned [] and simulate raised KeyError: 1.5.
    "float_node_id": (
        _edge_1_3_as(1.5, 3),
        [
            ("topology.links keys[4]", "expected a pair of ints, got tuple[float, int]"),
            ("topology.links keys[5]", "expected a pair of ints, got tuple[int, float]"),
            ("params.beta0 keys[4]", "expected a pair of ints, got tuple[float, int]"),
            ("params.beta0 keys[5]", "expected a pair of ints, got tuple[int, float]"),
        ],
    ),
    # Passed, though a bool p was a wrong_type.
    "bool_gearbox": (
        triangle(gearbox=True),
        [
            (f"link ({a},{b}) gearbox", "expected an int or a Fraction, got bool")
            for a, b in sorted(triangle()[0].links)
        ],
    ),
}


@pytest.mark.parametrize("case, want", list(NAMED.values()), ids=list(NAMED))
def test_named_hand_built_inputs_are_wrong_types(case, want):
    assert check(*case) == [Violation("wrong_type", *pair) for pair in want]


def loaded_configs():
    """Configs that load: the bundled ``triangle3``, the benchmark's three
    workloads at seeds 0 to 3, and ``random_scenario`` at seeds 0 to 19."""
    sys.path.insert(0, str(SRC.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(SRC.parent / "bench"))
    yield "triangle3", triangle3()
    for name, w in sorted(workloads.WORKLOADS.items()):
        for seed in range(4):
            yield f"{name}-{seed}", load_config(w.make_text(seed))
    for seed in range(20):
        yield f"random-{seed}", random_scenario(random.Random(seed))


def test_every_loaded_config_is_well_typed():
    # The schema reader is the typed boundary of the config path, which
    # therefore runs the rules alone: the typed walk finds nothing there.
    for name, cfg in loaded_configs():
        assert _typed(cfg.scenario.topology, cfg.scenario.params) == [], name
