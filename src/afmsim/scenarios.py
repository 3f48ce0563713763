"""Built-in scenario builders.

Each builder writes the config document a user would write and returns
``load_config`` of it, so a built scenario is defaulted and validated by the
same reader as a config file, and an argument the schema rejects raises
``ValidationError`` from the builder. ``triangle3`` is the bundled reference
run (its canonical text is ``scenarios/triangle3.json``); ``gearbox_pair``
exercises per-link rate multipliers; ``random_scenario`` draws admissible
scenarios for stress and equivalence testing.
"""

from __future__ import annotations

import json
import random

from .config import ScenarioConfig, load_config

# Shared by every builder: sample period p, actuation delay d, frequency floor.
_P, _D, _OMEGA_MIN = 10, 2, 0.1


def _load(
    n_nodes: int, edges: list[dict], params: dict, controller: dict, t_max: float
) -> ScenarioConfig:
    """Load the document of ``n_nodes`` nodes joined by ``edges``, with the
    shared p, d and omega_min added to ``params`` and an output grid of 0.5."""
    doc = {
        "topology": {"n_nodes": n_nodes, "edges": edges},
        "params": {"p": _P, "d": _D, "omega_min": _OMEGA_MIN, **params},
        "controller": controller,
        "run": {"t_max": t_max, "output_grid": 0.5},
    }
    return load_config(json.dumps(doc))


def triangle3(k_p: float = 0.01, t_max: float = 500.0) -> ScenarioConfig:
    """Three fully connected nodes with deliberately spread-out free-running
    frequencies (1.1, 1.4, 2.0) so the transients are visible.

    Sample period 10 ticks, actuation delay 2 ticks, unit latencies, all
    buffers starting at 50 frames, proportional control on the summed
    occupancies with gain ``k_p``.
    """
    edges = [{"a": a, "b": b, "latency": 1.0} for a, b in ((1, 2), (1, 3), (2, 3))]
    params = {"epoch": -25.0, "theta0": 0.1, "omega_u": [1.1, 1.4, 2.0], "beta0": 50}
    return _load(3, edges, params, {"kind": "proportional", "k_p": k_p}, t_max)


def gearbox_pair(t_max: float = 100.0) -> ScenarioConfig:
    """Two identical nodes joined by one edge that runs its forward direction
    at two frames per tick; uncontrolled (zero correction)."""
    edges = [{"a": 1, "b": 2, "latency": 1.0, "gearbox_ab": [2, 1]}]
    params = {"epoch": -25.0, "theta0": 0.1, "omega_u": 1.0, "beta0": 50}
    return _load(2, edges, params, {"kind": "zero"}, t_max)


def random_scenario(rng: random.Random, n_nodes: int | None = None) -> ScenarioConfig:
    """An admissible random scenario: 3-6 nodes on a connected graph, per-
    direction latencies in [0.5, 3], free-running frequencies in [0.9, 2.1].

    The proportional gain 0.01 passes ``is_admissible``, but that verdict
    assumes nonnegative occupancies, so it holds only while no buffer
    underflows. Not every draw keeps that premise: with unbounded buffers,
    seeds 0, 1, 2, 3, 7, 9, 11, 12, 16 and 17 record an underflow by T=2000.
    The ROADMAP item "A sound admissibility verdict" covers the gap.
    """
    n = rng.randint(3, 6) if n_nodes is None else n_nodes
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}  # random spanning tree
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if (a, b) not in edges and rng.random() < 0.3:
                edges.add((a, b))
    edge_docs = [
        {
            "a": a,
            "b": b,
            "latency_ab": rng.uniform(0.5, 3.0),
            "latency_ba": rng.uniform(0.5, 3.0),
            "beta0_ab": rng.randint(20, 80),
            "beta0_ba": rng.randint(20, 80),
        }
        for a, b in sorted(edges)
    ]
    max_latency = max(max(e["latency_ab"], e["latency_ba"]) for e in edge_docs)
    epoch = -(max_latency + _D / _OMEGA_MIN) - 1.0
    omega_u = [rng.uniform(0.9, 2.1) for _ in range(n)]
    theta0 = [rng.uniform(0.1, 0.9) for _ in range(n)]
    params = {"epoch": epoch, "theta0": theta0, "omega_u": omega_u}
    return _load(n, edge_docs, params, {"kind": "proportional", "k_p": 0.01}, 200.0)
