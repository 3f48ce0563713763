"""Built-in scenario builders.

``triangle3`` is the bundled reference run (also shipped as
``scenarios/triangle3.json``); ``gearbox_pair`` exercises per-link rate
multipliers; ``random_scenario`` draws admissible scenarios for stress and
equivalence testing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .config import RunSettings, ScenarioConfig
from .controllers import ControllerSpec
from .topology import Link, SystemParams, Topology, validate


def triangle3(k_p: float = 0.01, t_max: float = 500.0) -> ScenarioConfig:
    """Three fully connected nodes with deliberately spread-out free-running
    frequencies (1.1, 1.4, 2.0) so the transients are visible.

    Sample period 10 ticks, actuation delay 2 ticks, unit latencies, all
    buffers starting at 50 frames, proportional control on the summed
    occupancies with gain ``k_p``.
    """
    links = {}
    beta0 = {}
    for a, b in ((1, 2), (1, 3), (2, 3)):
        links[(a, b)] = Link(latency=1.0)
        links[(b, a)] = Link(latency=1.0)
        beta0[(a, b)] = 50
        beta0[(b, a)] = 50
    omega_u = (1.1, 1.4, 2.0)
    scenario = validate(
        Topology(n_nodes=3, links=links, buffer_capacity=None),
        SystemParams(
            p=10,
            d=2,
            omega_min=0.1,
            epoch=-25.0,
            theta0=(0.1, 0.1, 0.1),
            omega_u=omega_u,
            omega_init1=omega_u,
            omega_init2=omega_u,
            beta0=beta0,
        ),
    )
    return ScenarioConfig(
        scenario=scenario,
        controller=ControllerSpec(kind="proportional", k_p=k_p),
        run=RunSettings(t_max=t_max, output_grid=0.5, seed=None),
    )


def gearbox_pair(t_max: float = 100.0) -> ScenarioConfig:
    """Two identical nodes joined by one edge that runs its forward direction
    at two frames per tick; uncontrolled (zero correction)."""
    links = {
        (1, 2): Link(latency=1.0, gearbox=Fraction(2, 1)),
        (2, 1): Link(latency=1.0, gearbox=Fraction(1, 1)),
    }
    scenario = validate(
        Topology(n_nodes=2, links=links, buffer_capacity=None),
        SystemParams(
            p=10,
            d=2,
            omega_min=0.1,
            epoch=-25.0,
            theta0=(0.1, 0.1),
            omega_u=(1.0, 1.0),
            omega_init1=(1.0, 1.0),
            omega_init2=(1.0, 1.0),
            beta0={(1, 2): 50, (2, 1): 50},
        ),
    )
    return ScenarioConfig(
        scenario=scenario,
        controller=ControllerSpec(kind="zero"),
        run=RunSettings(t_max=t_max, output_grid=0.5, seed=None),
    )


def random_scenario(rng: random.Random, n_nodes: int | None = None) -> ScenarioConfig:
    """An admissible random scenario: 3-6 nodes on a connected graph, per-
    direction latencies in [0.5, 3], free-running frequencies in [0.9, 2.1].

    The proportional gain 0.01 passes ``is_admissible``, but that verdict
    assumes nonnegative occupancies, so it holds only while no buffer
    underflows. Not every draw keeps that premise: with unbounded buffers,
    seeds 0, 1, 2, 3, 7, 9, 11, 12, 16 and 17 record an underflow by T=2000.
    ROADMAP item 6 (a sound admissibility verdict) covers the gap.
    """
    n = rng.randint(3, 6) if n_nodes is None else n_nodes
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}  # random spanning tree
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in edges and rng.random() < 0.3:
                edges.add((a, b))
    links = {}
    beta0 = {}
    for a, b in sorted(edges):
        links[(a, b)] = Link(latency=rng.uniform(0.5, 3.0))
        links[(b, a)] = Link(latency=rng.uniform(0.5, 3.0))
        beta0[(a, b)] = rng.randint(20, 80)
        beta0[(b, a)] = rng.randint(20, 80)
    omega_min = 0.1
    d = 2
    max_latency = max(lk.latency for lk in links.values())
    epoch = -(max_latency + d / omega_min) - 1.0
    omega_u = tuple(rng.uniform(0.9, 2.1) for _ in range(n))
    theta0 = tuple(rng.uniform(0.1, 0.9) for _ in range(n))
    scenario = validate(
        Topology(n_nodes=n, links=links, buffer_capacity=None),
        SystemParams(
            p=10,
            d=d,
            omega_min=omega_min,
            epoch=epoch,
            theta0=theta0,
            omega_u=omega_u,
            omega_init1=omega_u,
            omega_init2=omega_u,
            beta0=beta0,
        ),
    )
    return ScenarioConfig(
        scenario=scenario,
        controller=ControllerSpec(kind="proportional", k_p=0.01),
        run=RunSettings(t_max=200.0, output_grid=0.5, seed=None),
    )
