"""Shared scenario builders for the test suite."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

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


# `pytest --hypothesis-profile=ci`: the default example counts, still random,
# but a failure prints the `@reproduce_failure` line that replays it.
settings.register_profile("ci", print_blob=True)

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "triangle3.json"
BIG = 10**400  # an integer no float holds


def set_field(doc, path, value):
    """Set the field at ``path`` (object keys and list indices) of a JSON document."""
    *parents, key = path
    for step in parents:
        doc = doc[step]
    doc[key] = value


def bundled_with(*edits):
    """The bundled ``triangle3`` config text with each (path, value) edit made."""
    doc = json.loads(BUNDLED.read_text())
    for path, value in edits:
        set_field(doc, path, value)
    return json.dumps(doc)


_EDGE0 = ("topology", "edges", 0)

# Inputs that binary64 cannot hold or that overflow in the float arithmetic
# of the model, each with the violation that must reject it.
OVERSIZE_CONFIGS = {
    "omega_min": (bundled_with((("params", "omega_min"), BIG)), "wrong_type", "params.omega_min"),
    "theta0_entry": (
        bundled_with((("params", "theta0"), [BIG, 0.1, 0.1])), "wrong_type", "params.theta0"
    ),
    "latency_ab": (
        bundled_with(((*_EDGE0, "latency_ab"), BIG)),
        "wrong_type",
        "topology.edges[0].latency_ab",
    ),
    "clamp": (
        bundled_with((("controller", "clamp"), [-BIG, 1.0])), "wrong_type", "controller.clamp"
    ),
    "gearbox_5000_digit_string": (
        bundled_with(((*_EDGE0, "gearbox"), "1" * 5000 + "/1")),
        "wrong_type",
        "topology.edges[0].gearbox",
    ),
    "gearbox_numerator": (
        bundled_with(((*_EDGE0, "gearbox_ab"), [BIG, 1])),
        "value_out_of_range",
        "link (1,2) gearbox",
    ),
    "gearbox_inexact": (
        bundled_with(((*_EDGE0, "gearbox_ab"), [2**60 + 1, 2**60])),
        "value_out_of_range",
        "link (1,2) gearbox",
    ),
    "d": (bundled_with((("params", "d"), BIG)), "value_out_of_range", "params.d"),
    "p": (bundled_with((("params", "p"), BIG)), "value_out_of_range", "params.p"),
    "beta0_ab": (
        bundled_with(((*_EDGE0, "beta0_ab"), BIG)), "value_out_of_range", "link (1,2) beta0"
    ),
    "scaled_theta0": (
        bundled_with((("params", "theta0"), [1e308, 0.1, 0.1]), ((*_EDGE0, "gearbox_ab"), [2, 1])),
        "value_out_of_range",
        "link (1,2)",
    ),
    "history_start_phase": (
        bundled_with((("params", "epoch"), -1e308)), "value_out_of_range", "node 3"
    ),
    # with a scalar theta0, which would be broadcast to n_nodes values
    "n_nodes": (
        bundled_with((("topology", "n_nodes"), BIG), (("params", "theta0"), 0.1)),
        "value_out_of_range",
        "topology.n_nodes",
    ),
    "n_nodes_inexact": (
        bundled_with((("topology", "n_nodes"), 2**53 + 1), (("params", "theta0"), 0.1)),
        "value_out_of_range",
        "topology.n_nodes",
    ),
}

# An integer literal with more digits than Python converts (4300).
HUGE_LITERAL_CONFIG = BUNDLED.read_text().replace('"p": 10,', '"p": 1' + "0" * 5000 + ",")
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts integers of any length",
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
