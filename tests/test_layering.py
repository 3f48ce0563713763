"""Module layering: no import cycle, with ``phase`` just above ``trajectory``,
and the closed form written in two places of ``engine``."""

import ast
import dataclasses
import subprocess
import sys
from graphlib import TopologicalSorter

import afmsim
from afmsim import engine, oracle, phase, topology, trajectory
from afmsim.engine import SystemState
from afmsim.trajectory import ClockTrajectory

from conftest import SRC, src_env


def sibling_imports():
    """Each ``afmsim`` module's relative imports of other ``afmsim`` modules."""
    graph = {}
    for path in sorted((SRC / "afmsim").glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import engine
                    deps |= {alias.name for alias in node.names}
                else:  # from .engine import simulate
                    deps.add(node.module.split(".")[0])
        graph[path.stem] = deps
    return graph


def test_modules_are_layered_without_cycles():
    graph = sibling_imports()
    assert {"engine", "oracle", "phase", "trajectory"} <= graph.keys()
    list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert graph["trajectory"] == set()
    assert graph["phase"] == {"trajectory"}
    assert "oracle" not in graph["engine"]
    for module in ("afmsim.engine", "afmsim.phase"):
        run = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=src_env(),
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stderr


def called_names(tree):
    """``(top-level definition, called name)`` for every call in ``tree``."""
    return {
        (getattr(top, "name", None), getattr(node.func, "id", getattr(node.func, "attr", None)))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    }


def test_engine_floors_phases_only_in_measure_and_occupancy_series():
    # The closed form has one scalar copy (in ``step``, once per step) and one
    # list copy (``occupancy_series``); the scalar helpers are gone. The
    # scalar copy floors through the per-link floors that ``init_state``
    # looks up once (``floor_of``), the list copy through ``scaled_floors``.
    # Both floor helpers of ``phase`` count.
    tree = ast.parse((SRC / "afmsim" / "engine.py").read_text(encoding="utf-8"))
    floors = {"floor_of", "scaled_floors"}
    assert all(callable(getattr(phase, name)) for name in floors)
    callers = {(top, name) for top, name in called_names(tree) if name in floors}
    assert callers == {("init_state", "floor_of"), ("occupancy_series", "scaled_floors")}
    for name in ("buffer_occupancy", "link_occupancy"):
        assert name not in afmsim.__all__
        assert not hasattr(engine, name)


def test_no_phase_is_floored_outside_phase():
    # The one rounding path: the modules that read phases floor them only
    # through ``phase``, never with a floor of their own.
    for module in ("engine", "oracle", "trajectory"):
        tree = ast.parse((SRC / "afmsim" / f"{module}.py").read_text(encoding="utf-8"))
        assert "floor" not in {name for _, name in called_names(tree)}, module
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "floor" not in imported, module


def test_the_one_time_occupancy_is_gone():
    # The replay reads every occupancy through ``LinkReplay.occupancies``.
    assert not hasattr(oracle.LinkReplay, "occupancy")
    assert "occupancy" not in afmsim.__all__


def test_the_measure_wrappers_are_gone():
    # ``step`` writes the scalar copy of the closed form in its own body, so
    # neither the public wrapper nor the helper it wrapped is left.
    for name in ("measure", "_measure"):
        assert not hasattr(engine, name)
        assert not hasattr(afmsim, name)
        assert name not in afmsim.__all__


def test_the_gearbox_normal_forms_are_gone():
    # Config gives a gearbox its one run-time form (the int 1, else a reduced
    # Fraction), and the floors, the engine and the replay read it as it is:
    # nothing converts it, and one scalar floor has one name.
    for name in ("Ratio", "resolve", "scaled_floor"):
        assert not hasattr(phase, name)
        assert name not in afmsim.__all__
    for module in ("engine", "oracle"):
        tree = ast.parse((SRC / "afmsim" / f"{module}.py").read_text(encoding="utf-8"))
        called = {name for _, name in called_names(tree)}
        assert called.isdisjoint({"resolve", "Ratio", "Fraction"}), module


def definition(module, name):
    """The top-level function or method ``name`` of ``afmsim.<module>``, parsed."""
    tree = ast.parse((SRC / "afmsim" / f"{module}.py").read_text(encoding="utf-8"))
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_the_floor_identity_and_the_last_segment_inverse_are_gone():
    # A step floors node i's own phase once per in-link, through that link's
    # floor, so no floor is told apart by identity: ``floor_of`` builds a
    # plain function each call, with no cache behind it, and ``step`` has no
    # ``is`` test. ``inverse`` bisects on every lookup, with no last-segment
    # test (a ``len`` of the knots) before it.
    assert not hasattr(phase, "_floor_of")
    assert not hasattr(phase, "functools")
    assert not hasattr(phase.floor_of, "cache_info")
    step = definition("engine", "step")
    ops = {type(op) for node in ast.walk(step) if isinstance(node, ast.Compare) for op in node.ops}
    assert ops.isdisjoint({ast.Is, ast.IsNot})
    assert "own_floor" not in {node.id for node in ast.walk(step) if isinstance(node, ast.Name)}
    inverse = definition("trajectory", "inverse")
    called = {getattr(node.func, "id", None) for node in ast.walk(inverse) if isinstance(node, ast.Call)}
    assert "len" not in called and "bisect_right" in called


def test_the_pointwise_slope_and_the_step_counter_are_gone():
    # ``sweep_phase_slope`` is the one slope reader, and a node's step index
    # is its knot count less three, so neither needs a copy of its own.
    assert not hasattr(ClockTrajectory, "slope_at")
    assert "steps" not in {f.name for f in dataclasses.fields(SystemState)}
    assert {"slope_at", "steps"}.isdisjoint(afmsim.__all__)


def test_the_validation_rule_tables_are_gone():
    # ``check`` states each rule as one ``if`` of one walk: no rule table
    # and no interpreter that runs one.
    for name in ("_NODE_RULES", "_BETA0_RULES", "_failing", "_table"):
        assert not hasattr(topology, name)


def test_one_sweep_reads_phases_and_one_check_orders_times():
    # ``sweep_eval`` (shifted by a latency for a source) and
    # ``sweep_phase_slope`` (a node's phases and slopes in one walk) are the
    # sweeps that read phases, and ``trajectory.check_times`` the one order
    # check: the pairwise order test, a ``map`` of ``le`` (``operator.le``)
    # over a list, appears there alone.
    assert not hasattr(phase, "shifted_floors")
    assert not hasattr(trajectory, "_check_sweep")
    assert {"shifted_floors", "_check_sweep"}.isdisjoint(afmsim.__all__)
    pairwise = set()
    for path in sorted((SRC / "afmsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "map"
                    and node.args
                    and getattr(node.args[0], "id", getattr(node.args[0], "attr", None)) == "le"
                ):
                    pairwise.add((path.stem, getattr(top, "name", None)))
    assert pairwise == {("trajectory", "check_times")}
