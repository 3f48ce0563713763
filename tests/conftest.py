"""Shared scenario builders for the test suite."""

import dataclasses

import pytest

from afmsim.controllers import ControllerSpec
from afmsim.scenarios import triangle3
from afmsim.topology import Link, SystemParams, Topology, validate


def two_node_scenario(
    omega_u=(1.0, 1.0),
    theta0=(0.5, 0.5),
    beta0=7,
    latency=1.0,
    capacity=None,
    omega_min=0.1,
    epoch=-25.0,
):
    links = {(1, 2): Link(latency=latency), (2, 1): Link(latency=latency)}
    return validate(
        Topology(n_nodes=2, links=links, buffer_capacity=capacity),
        SystemParams(
            p=10,
            d=2,
            omega_min=omega_min,
            epoch=epoch,
            theta0=theta0,
            omega_u=omega_u,
            omega_init1=omega_u,
            omega_init2=omega_u,
            beta0={(1, 2): beta0, (2, 1): beta0},
        ),
    )


def tied_triangle():
    """``triangle3`` with nodes 1 and 2 at the same free-running frequency, so
    their trajectories end together on many steps and the tie rule decides."""
    cfg = triangle3()
    omega = (1.4, 1.4, 2.0)
    params = dataclasses.replace(
        cfg.scenario.params, omega_u=omega, omega_init1=omega, omega_init2=omega
    )
    return dataclasses.replace(cfg, scenario=validate(cfg.scenario.topology, params))


def relabeled(sc, perm):
    """``sc`` with node i renamed ``perm[i]``: the same system, other labels."""
    n = sc.topology.n_nodes
    inv = {v: k for k, v in perm.items()}
    links = {(perm[a], perm[b]): lk for (a, b), lk in sc.topology.links.items()}
    beta0 = {(perm[a], perm[b]): v for (a, b), v in sc.params.beta0.items()}
    re_tuple = lambda tup: tuple(tup[inv[j] - 1] for j in range(1, n + 1))
    return validate(
        Topology(n_nodes=n, links=links, buffer_capacity=sc.topology.buffer_capacity),
        SystemParams(
            p=sc.params.p,
            d=sc.params.d,
            omega_min=sc.params.omega_min,
            epoch=sc.params.epoch,
            theta0=re_tuple(sc.params.theta0),
            omega_u=re_tuple(sc.params.omega_u),
            omega_init1=re_tuple(sc.params.omega_init1),
            omega_init2=re_tuple(sc.params.omega_init2),
            beta0=beta0,
        ),
    )


@pytest.fixture(scope="session")
def triangle_cfg():
    return triangle3()


@pytest.fixture
def zero_spec():
    return ControllerSpec(kind="zero")
