"""JSON scenario configs: parsing, normalization, fingerprinting.

A config document has four sections: ``topology``, ``params``,
``controller``, and optional ``run``. Every field is read by one reader,
under one rule: an explicit null is the same as an absent key. Loading
broadcasts scalar shorthands (per-node and per-link values may be given
once), resolves per-direction link fields, and then applies every
well-posedness check. The schema reader reports all its violations together,
each with the path of the offending field; only a document it accepts goes on
to the constraint checks of ``topology.validate``, which report all theirs
together, each naming a field, a node or a link (``link (1,2)``). The
canonical form emitted by ``to_dict`` is fully resolved, so two configs that
mean the same scenario fingerprint the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import engine
from .controllers import ControllerSpec
from .topology import (
    MAX_EXACT_INT,
    Link,
    Scenario,
    SystemParams,
    Topology,
    ValidationError,
    Violation,
    validate,
)


class ConfigError(ValueError):
    """Config text that is not well-formed JSON; carries line/column."""


@dataclass(frozen=True)
class RunSettings:
    t_max: float = 100.0
    output_grid: float = 0.5
    seed: int | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    controller: ControllerSpec
    run: RunSettings

    def to_dict(self) -> dict:
        """Canonical, fully resolved form; stable key order is left to the
        JSON writer."""
        topo = self.scenario.topology
        par = self.scenario.params
        edges = []
        for (a, b) in topo.edges():
            ab = topo.links[(a, b)]
            ba = topo.links[(b, a)]
            edges.append(
                {
                    "a": a,
                    "b": b,
                    "latency_ab": ab.latency,
                    "latency_ba": ba.latency,
                    "gearbox_ab": [ab.gearbox.numerator, ab.gearbox.denominator],
                    "gearbox_ba": [ba.gearbox.numerator, ba.gearbox.denominator],
                    "beta0_ab": par.beta0[(a, b)],
                    "beta0_ba": par.beta0[(b, a)],
                }
            )
        ctrl = self.controller
        return {
            "topology": {
                "n_nodes": topo.n_nodes,
                "buffer_capacity": topo.buffer_capacity,
                "edges": edges,
            },
            "params": {
                "p": par.p,
                "d": par.d,
                "omega_min": par.omega_min,
                "epoch": par.epoch,
                "theta0": list(par.theta0),
                "omega_u": list(par.omega_u),
                "omega_init1": list(par.omega_init1),
                "omega_init2": list(par.omega_init2),
            },
            "controller": {
                "kind": ctrl.kind,
                "k_p": ctrl.k_p,
                "beta_ref": ctrl.beta_ref,
                "clamp": list(ctrl.clamp) if ctrl.clamp is not None else None,
            },
            "run": {
                "t_max": self.run.t_max,
                "output_grid": self.run.output_grid,
                "seed": self.run.seed,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def fingerprint(self) -> str:
        """Content hash of the canonical form; identifies the scenario."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _as_float(x) -> float | None:
    """A JSON number as a finite float, else None. json.loads accepts NaN,
    Infinity and integers too large for binary64; none is a usable value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _as_int(x) -> int | None:
    return x if isinstance(x, int) and not isinstance(x, bool) else None


def _as_gearbox(x) -> Fraction | None:
    """Accepts 2, [2, 1], or "2/1"; canonical form is the two-element list."""
    if isinstance(x, str):
        # ASCII digits only: str.isdigit also passes '²', which int() rejects.
        match = re.fullmatch(r"\s*(-?[0-9]+)\s*/\s*([0-9]+)\s*", x)
        try:
            x = [int(match[1]), int(match[2])] if match else None
        except ValueError:  # more digits than int() converts
            return None
    elif _as_int(x) is not None:
        x = [x, 1]
    if isinstance(x, list) and len(x) == 2 and None not in map(_as_int, x) and x[1] != 0:
        return Fraction(x[0], x[1])
    return None


def _as_clamp(x) -> tuple[float, float] | None:
    bounds = tuple(map(_as_float, x)) if isinstance(x, list) else ()
    if len(bounds) == 2 and None not in bounds and bounds[0] <= bounds[1]:
        return bounds
    return None


# What a field must hold, and the function that reads it (None if it does not).
_NUMBER = ("a number", _as_float)
_INTEGER = ("an integer", _as_int)
_GEARBOX = ("an integer, [num, den], or 'num/den' with a nonzero den", _as_gearbox)
_CLAMP = ("[low, high] with low <= high", _as_clamp)
_OBJECT = ("an object", lambda x: x if isinstance(x, dict) else None)
# The gearbox of a link that names none; a Fraction is immutable, so links share it.
_UNITY = Fraction(1)


def _per_node(n: int | None):
    """The kind of a per-node field: one number for all ``n`` nodes, or a list
    of ``n`` numbers. With ``n`` None, a node count already rejected, a list
    of any length is read and one number is not broadcast."""

    def read(x) -> tuple[float, ...] | None:
        one = _as_float(x)
        if one is not None:
            return (one,) * (1 if n is None else n)
        if not isinstance(x, list) or n not in (None, len(x)):  # a dict is wrong even at n 0
            return None
        vals = tuple(map(_as_float, x))
        return None if None in vals else vals

    return (f"a number or a list of {'n_nodes' if n is None else n} numbers", read)


_DIRECTIONS = ("_ab", "_ba")
_EDGE_KEYS = {"a", "b"} | {
    key + suffix for key in ("latency", "gearbox", "beta0") for suffix in ("", *_DIRECTIONS)
}


class _Reader:
    """Walks the raw dict, collecting violations with field paths."""

    def __init__(self):
        self.violations: list[Violation] = []

    def bad(self, name: str, path: str, detail: str) -> None:
        self.violations.append(Violation(name, path, detail))

    def value(self, raw: dict, key: str, path: str, kind, default=None, required=True):
        """The field read as ``kind``, or ``default`` if it is absent, null or
        wrong."""
        if key not in raw or raw[key] is None:
            if required:
                self.bad("missing_field", f"{path}{key}", f"required: {kind[0]}")
            return default
        val = kind[1](raw[key])
        if val is None:
            self.bad("wrong_type", f"{path}{key}", f"expected {kind[0]}, got {raw[key]!r}")
            return default
        return val

    def section(self, raw: dict, key: str, path: str, keys: set[str], required=True):
        """The object at ``key``, its keys checked against ``keys``."""
        val = self.value(raw, key, path, _OBJECT, required=required)
        if val is not None:
            self.check_keys(val, keys, f"{path}{key}.")
        return val

    def per_direction(self, edge: dict, key: str, path: str, kind, default=None) -> tuple:
        """(a->b, b->a) values: ``key_ab`` and ``key_ba``, each falling back to
        the shared ``key``, which falls back to ``default``."""
        shared = self.value(edge, key, path, kind, default, False)
        ab, ba = _DIRECTIONS
        return (
            self.value(edge, key + ab, path, kind, shared, False),
            self.value(edge, key + ba, path, kind, shared, False),
        )

    def check_keys(self, raw: dict, allowed: set[str], path: str) -> None:
        for key in raw:
            if key not in allowed:
                self.bad("unknown_field", f"{path}{key}", "not part of the schema")


def load_config(text: str) -> ScenarioConfig:
    """Parse, normalize, and validate a config document.

    Raises ConfigError on malformed JSON and ValidationError on schema
    violations (all of them, each naming a field path) or, once the schema
    reads cleanly, on constraint violations (all of them, each naming its
    subject).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal with more digits than Python converts
        raise ConfigError(f"parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")

    r = _Reader()
    r.check_keys(raw, {"topology", "params", "controller", "run"}, "")
    topo_raw = r.section(raw, "topology", "", {"n_nodes", "buffer_capacity", "edges"})
    par_keys = "p d omega_min epoch theta0 omega_u omega_init1 omega_init2 beta0"
    par_raw = r.section(raw, "params", "", set(par_keys.split()))
    ctrl_raw = r.section(raw, "controller", "", {"kind", "k_p", "beta_ref", "clamp"})
    run_raw = r.section(raw, "run", "", {"t_max", "output_grid", "seed"}, required=False)

    n_nodes = 0
    links: dict[tuple[int, int], Link] = {}
    beta0: dict[tuple[int, int], int] = {}
    capacity = None
    if topo_raw is not None:
        n_nodes = r.value(topo_raw, "n_nodes", "topology.", _INTEGER, default=0)
        if abs(n_nodes) > MAX_EXACT_INT:  # before a scalar is broadcast to n_nodes values
            r.bad("value_out_of_range", "topology.n_nodes", "magnitude above 2**53")
            n_nodes = None
        capacity = r.value(topo_raw, "buffer_capacity", "topology.", _INTEGER, required=False)
        edges_raw = topo_raw.get("edges")
        if not isinstance(edges_raw, list):
            r.bad("wrong_type", "topology.edges", "expected a list of edge objects")
            edges_raw = []
        default_beta0 = r.value(par_raw or {}, "beta0", "params.", _INTEGER, required=False)
        for idx, edge in enumerate(edges_raw):
            path = f"topology.edges[{idx}]."
            if not isinstance(edge, dict):
                r.bad("wrong_type", path[:-1], "expected an edge object")
                continue
            r.check_keys(edge, _EDGE_KEYS, path)
            a = r.value(edge, "a", path, _INTEGER)
            b = r.value(edge, "b", path, _INTEGER)
            if a is None or b is None:
                continue
            if (a, b) in links or (b, a) in links:
                r.bad("duplicate_edge", path[:-1], f"edge ({a},{b}) already defined")
                continue
            lat_ab, lat_ba = r.per_direction(edge, "latency", path, _NUMBER)
            if lat_ab is None or lat_ba is None:
                r.bad("missing_field", f"{path}latency", "each direction needs a latency")
                continue
            gear_ab, gear_ba = r.per_direction(edge, "gearbox", path, _GEARBOX, _UNITY)
            b0_ab, b0_ba = r.per_direction(edge, "beta0", path, _INTEGER, default_beta0)
            if b0_ab is None or b0_ba is None:
                r.bad(
                    "beta0_missing",
                    path[:-1],
                    "no initial occupancy given and no params.beta0 default",
                )
                continue
            links[(a, b)] = Link(latency=lat_ab, gearbox=gear_ab)
            links[(b, a)] = Link(latency=lat_ba, gearbox=gear_ba)
            beta0[(a, b)] = b0_ab
            beta0[(b, a)] = b0_ba

    params = None
    if par_raw is not None:
        p = r.value(par_raw, "p", "params.", _INTEGER, default=0)
        d = r.value(par_raw, "d", "params.", _INTEGER, default=0)
        omega_min = r.value(par_raw, "omega_min", "params.", _NUMBER, default=0.0)
        epoch = r.value(par_raw, "epoch", "params.", _NUMBER, default=0.0)
        per_node = _per_node(n_nodes)
        theta0 = r.value(par_raw, "theta0", "params.", per_node)
        omega_u = r.value(par_raw, "omega_u", "params.", per_node)
        omega_init1 = r.value(par_raw, "omega_init1", "params.", per_node, omega_u, False)
        omega_init2 = r.value(par_raw, "omega_init2", "params.", per_node, omega_init1, False)
        if None not in (theta0, omega_u, omega_init1, omega_init2):
            params = SystemParams(
                p=p,
                d=d,
                omega_min=omega_min,
                epoch=epoch,
                theta0=theta0,
                omega_u=omega_u,
                omega_init1=omega_init1,
                omega_init2=omega_init2,
                beta0=beta0,
            )

    controller = None
    if ctrl_raw is not None:
        kind = ctrl_raw.get("kind")
        if kind not in ("zero", "proportional"):
            r.bad(
                "controller_kind",
                "controller.kind",
                f"expected 'zero' or 'proportional', got {kind!r}",
            )
        else:
            controller = ControllerSpec(
                kind=kind,
                k_p=r.value(ctrl_raw, "k_p", "controller.", _NUMBER, 0.0, kind == "proportional"),
                beta_ref=r.value(ctrl_raw, "beta_ref", "controller.", _NUMBER, 0.0, False),
                clamp=r.value(ctrl_raw, "clamp", "controller.", _CLAMP, required=False),
            )

    run_raw = run_raw or {}
    t_max = r.value(run_raw, "t_max", "run.", _NUMBER, RunSettings.t_max, False)
    grid = r.value(run_raw, "output_grid", "run.", _NUMBER, RunSettings.output_grid, False)
    seed = r.value(run_raw, "seed", "run.", _INTEGER, required=False)
    if t_max <= 0:
        r.bad("run_t_max_nonpositive", "run.t_max", f"t_max={t_max!r}")
    if grid <= 0:
        r.bad("run_grid_nonpositive", "run.output_grid", f"output_grid={grid!r}")
    run = RunSettings(t_max=t_max, output_grid=grid, seed=seed)

    if r.violations:
        raise ValidationError(r.violations)
    if params is None or controller is None:
        raise RuntimeError("config sections left unparsed without a recorded violation")
    topology = Topology(n_nodes=n_nodes, links=links, buffer_capacity=capacity)
    scenario = validate(topology, params)  # raises with constraint violations
    return ScenarioConfig(scenario=scenario, controller=controller, run=run)


def load_config_file(path: str | Path) -> ScenarioConfig:
    """``load_config`` of the file's text; bytes that are not UTF-8 are a
    ``ConfigError`` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return load_config(text)


def run_config(
    cfg: ScenarioConfig,
    t_max: float | None = None,
    grid_dt: float | None = None,
) -> engine.Trace:
    """Simulate a loaded config and stamp the trace with its fingerprint."""
    t = cfg.run.t_max if t_max is None else t_max
    g = cfg.run.output_grid if grid_dt is None else grid_dt
    trace = engine.simulate(cfg.scenario, cfg.controller, t, grid_dt=g)
    trace.fingerprint = cfg.fingerprint()
    trace.meta = {"config": cfg.to_dict(), "t_max": t, "grid_dt": g}
    return trace
