"""Topology and parameter validation tests."""

import dataclasses
from fractions import Fraction

import pytest

from afmsim.controllers import ControllerSpec, make_controllers
from afmsim.engine import init_state, measure
from afmsim.topology import (
    Link,
    SystemParams,
    Topology,
    ValidationError,
    check,
    validate,
)


def triangle_topology(capacity=None):
    links = {}
    for a, b in ((1, 2), (1, 3), (2, 3)):
        links[(a, b)] = Link(latency=1.0)
        links[(b, a)] = Link(latency=1.0)
    return Topology(n_nodes=3, links=links, buffer_capacity=capacity)


def triangle_params(**overrides):
    base = dict(
        p=10,
        d=2,
        omega_min=0.1,
        epoch=-25.0,
        theta0=(0.1, 0.1, 0.1),
        omega_u=(1.1, 1.4, 2.0),
        omega_init1=(1.1, 1.4, 2.0),
        omega_init2=(1.1, 1.4, 2.0),
        beta0={k: 50 for k in triangle_topology().links},
    )
    base.update(overrides)
    return SystemParams(**base)


def names(violations):
    return [v.name for v in violations]


def test_reference_triangle_is_valid():
    assert check(triangle_topology(), triangle_params()) == []
    scenario = validate(triangle_topology(), triangle_params())
    assert scenario.topology.n_nodes == 3


def test_epoch_too_late():
    # bound is -(1 + 2/0.1) = -21, so -1 violates it
    violations = check(triangle_topology(), triangle_params(epoch=-1.0))
    assert "epoch_too_late" in names(violations)
    assert any("link" in v.subject for v in violations)


def test_initial_phase_integral():
    violations = check(triangle_topology(), triangle_params(theta0=(1.0, 0.1, 0.1)))
    assert "initial_phase_integral" in names(violations)
    assert any(v.subject == "node 1" for v in violations)


def test_initial_phase_guard_band():
    violations = check(triangle_topology(), triangle_params(theta0=(0.1, 1e-9, 0.1)))
    assert "initial_phase_near_integral" in names(violations)


def test_delay_must_be_below_period():
    assert "delay_not_less_than_period" in names(
        check(triangle_topology(), triangle_params(d=10))
    )


def test_unpaired_link():
    links = dict(triangle_topology().links)
    del links[(3, 2)]
    topo = Topology(3, links)
    params = triangle_params(beta0={k: 50 for k in links})
    assert "link_unpaired" in names(check(topo, params))


def test_self_link_rejected():
    links = dict(triangle_topology().links)
    links[(1, 1)] = Link(latency=1.0)
    params = triangle_params(beta0={k: 50 for k in links})
    assert "self_link" in names(check(Topology(3, links), params))


def test_nonpositive_latency_and_gearbox():
    links = dict(triangle_topology().links)
    links[(1, 2)] = Link(latency=0.0)
    links[(2, 1)] = Link(latency=1.0, gearbox=Fraction(-1, 2))
    got = names(check(Topology(3, links), triangle_params()))
    assert "latency_nonpositive" in got
    assert "gearbox_nonpositive" in got


def test_beta0_capacity_and_sign():
    params = triangle_params(beta0={k: (120 if k == (1, 2) else -1 if k == (2, 1) else 50)
                                    for k in triangle_topology().links})
    got = names(check(triangle_topology(capacity=100), params))
    assert "beta0_exceeds_capacity" in got
    assert "beta0_negative" in got


def test_beta0_keys_must_match_links():
    params = triangle_params(beta0={(1, 2): 50})
    assert "beta0_keys_mismatch" in names(check(triangle_topology(), params))


def test_initial_frequency_floor_is_strict():
    violations = check(
        triangle_topology(), triangle_params(omega_init1=(0.1, 1.4, 2.0))
    )
    assert "initial_frequency_not_above_min" in names(violations)


def test_gearbox_phase_boundary_guard():
    links = dict(triangle_topology().links)
    links[(1, 2)] = Link(latency=1.0, gearbox=Fraction(10, 1))
    # theta0 = 0.1 scaled by 10 hits an integer exactly
    got = names(check(Topology(3, links), triangle_params()))
    assert "gearbox_phase_boundary" in got


def test_validate_raises_with_all_violations():
    with pytest.raises(ValidationError) as err:
        validate(triangle_topology(), triangle_params(epoch=-1.0, theta0=(1.0, 0.1, 0.1)))
    got = names(err.value.violations)
    assert "epoch_too_late" in got
    assert "initial_phase_integral" in got


def test_non_finite_values_rejected_not_crashed():
    violations = check(triangle_topology(), triangle_params(theta0=(float("nan"), 0.1, 0.1)))
    assert "value_not_finite" in names(violations)
    violations = check(triangle_topology(), triangle_params(epoch=float("-inf")))
    assert "value_not_finite" in names(violations)


def test_check_is_pure():
    topo, params = triangle_topology(), triangle_params(epoch=-1.0)
    assert check(topo, params) == check(topo, params)


def test_neighbors_ordering():
    # measure reports incoming buffers by ascending neighbor id, whatever the
    # link insertion order; at t=0 each occupancy is the link's beta0
    def first_measurements(topology, beta0):
        scenario = validate(topology, triangle_params(beta0=beta0))
        state = init_state(scenario, make_controllers(ControllerSpec(kind="zero"), 3))
        return {i: measure(state, i, 0.0) for i in topology.nodes()}

    tri = triangle_topology()
    assert first_measurements(tri, {k: 50 for k in tri.links})[1] == ((2, 50), (3, 50))
    path_links = {
        (3, 2): Link(1.0), (2, 3): Link(1.0),
        (2, 1): Link(1.0), (1, 2): Link(1.0),
    }
    beta0 = {(3, 2): 32, (2, 3): 23, (2, 1): 21, (1, 2): 12}
    got = first_measurements(Topology(3, path_links), beta0)
    assert got[2] == ((1, 12), (3, 32))
    assert got[1] == ((2, 21),)
    assert got[3] == ((2, 23),)


def test_scenario_is_frozen():
    scenario = validate(triangle_topology(), triangle_params())
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.topology = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.params.p = 11


def test_edges_and_directed_links_order():
    topo = triangle_topology()
    assert topo.edges() == [(1, 2), (1, 3), (2, 3)]
    assert topo.directed_links() == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def out_of_range(violations):
    return [v.subject for v in violations if v.name == "value_out_of_range"]


@pytest.mark.parametrize(
    "field, value, subject",
    [
        ("p", 2**53 + 1, "params.p"),
        ("p", -(10**400), "params.p"),
        ("d", 10**400, "params.d"),
        ("beta0", 2**53 + 1, "link (1,2) beta0"),
        ("beta0", 10**400, "link (1,2) beta0"),
    ],
    ids=["p=2**53+1", "p=-10**400", "d=10**400", "beta0=2**53+1", "beta0=10**400"],
)
def test_integers_beyond_binary64_are_out_of_range(field, value, subject):
    if field == "beta0":
        value = {k: (value if k == (1, 2) else 50) for k in triangle_topology().links}
    got = check(triangle_topology(), triangle_params(**{field: value}))
    assert out_of_range(got) == [subject]


@pytest.mark.parametrize(
    "gearbox",
    [Fraction(10**400), Fraction(2**60 + 1, 2**60), Fraction(1, 2**53 + 1)],
    ids=["10**400", "(2**60+1)/2**60", "1/(2**53+1)"],
)
def test_gearbox_beyond_binary64_is_out_of_range(gearbox):
    links = dict(triangle_topology().links)
    links[(1, 2)] = Link(latency=1.0, gearbox=gearbox)
    got = check(Topology(3, links), triangle_params())
    assert out_of_range(got) == ["link (1,2) gearbox"]


def test_largest_exact_integers_are_in_range():
    links = dict(triangle_topology().links)
    links[(1, 2)] = Link(latency=1.0, gearbox=Fraction(2**53, 2**53 - 1))
    beta0 = {k: 2**53 for k in links}
    assert check(Topology(3, links), triangle_params(p=2**53, beta0=beta0)) == []


def test_non_finite_history_start_phase_is_out_of_range():
    # theta0 + omega_init2 * epoch is -inf for node 3 (omega 2.0) only
    got = check(triangle_topology(), triangle_params(epoch=-1e308))
    assert out_of_range(got) == ["node 3"]


def test_non_finite_scaled_phase_is_out_of_range():
    links = dict(triangle_topology().links)
    links[(1, 2)] = Link(latency=1.0, gearbox=Fraction(2))
    got = check(Topology(3, links), triangle_params(theta0=(1e308, 0.1, 0.1)))
    assert out_of_range(got) == ["link (1,2)"]
    assert "initial_phase_integral" in names(got)


def test_out_of_range_values_keep_the_other_violations():
    params = triangle_params(d=10**400, epoch=-1.0, theta0=(1.0, 0.1, 0.1))
    got = names(check(triangle_topology(), params))
    assert "value_out_of_range" in got
    assert "delay_not_less_than_period" in got
    assert "initial_phase_integral" in got


def test_every_wrong_length_field_is_reported_with_the_link_checks():
    beta0 = {k: (-1 if k == (1, 2) else 50) for k in triangle_topology().links}
    params = triangle_params(theta0=(0.1, 0.1), omega_u=(1.1,), beta0=beta0)
    got = check(triangle_topology(), params)
    assert [(v.name, v.subject) for v in got] == [
        ("param_length", "params.theta0"),
        ("param_length", "params.omega_u"),
        ("beta0_negative", "link (1,2)"),
    ]


def test_report_order_scalars_then_nodes_then_each_link():
    links = dict(triangle_topology().links)
    links[(1, 1)] = Link(latency=1.0)
    links[(1, 4)] = Link(latency=1.0)
    links[(2, 3)] = Link(latency=1.0, gearbox=Fraction(10))  # scales theta0 0.1 to 1.0
    beta0 = {k: (-1 if k == (1, 1) else 50) for k in links}
    params = triangle_params(p=0, theta0=(1.0, 0.1, 0.1), beta0=beta0)
    got = check(Topology(3, links), params)
    assert [(v.name, v.subject) for v in got] == [
        ("period_nonpositive", "params.p"),
        ("delay_not_less_than_period", "params"),
        ("initial_phase_integral", "node 1"),
        ("self_link", "link (1,1)"),
        ("beta0_negative", "link (1,1)"),
        ("link_unknown_node", "link (1,4)"),
        ("gearbox_phase_boundary", "link (2,3)"),
        ("gearbox_phase_boundary", "link (2,3)"),
    ]
