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

The edge list, the one part of a document that grows with the topology, is
read in one pass over the keys each edge has: the pass sorts the values into
place and flags unknown keys, and the values are then read in the documented
order. Edges whose links are equal, with the same latency and gearbox, share
one immutable ``Link``. A per-node list is checked by scans over the whole
list, not value by value.
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
    MAX_NODES,
    Link,
    Scenario,
    SystemParams,
    Topology,
    ValidationError,
    Violation,
    too_many_nodes,
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
        return _fingerprint(self.to_dict())


def _fingerprint(canon: dict) -> str:
    """The sha256 of a canonical form ``to_dict`` built."""
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _as_float(x) -> float | None:
    """A JSON number as a finite float, else None. json.loads accepts NaN,
    Infinity and integers too large for binary64; none is a usable value."""
    if type(x) is float:  # json.loads makes exact types, so no bool passes a type test
        return x if math.isfinite(x) else None
    if type(x) is not int:
        return None
    try:
        return float(x)  # finite, or OverflowError
    except OverflowError:
        return None


def _as_int(x) -> int | None:
    return x if type(x) is int else None


def _as_gearbox(x) -> int | Fraction | None:
    """Accepts 2, [2, 1], or "2/1"; canonical form is the two-element list.
    Every unit gearbox is ``_UNITY``; any other is a reduced Fraction."""
    if isinstance(x, str):
        # ASCII digits only: str.isdigit also passes '²', which int() rejects.
        match = re.fullmatch(r"\s*(-?[0-9]+)\s*/\s*([0-9]+)\s*", x)
        try:
            x = [int(match[1]), int(match[2])] if match else None
        except ValueError:  # more digits than int() converts
            return None
    elif type(x) is int:
        x = [x, 1]
    if isinstance(x, list) and len(x) == 2 and None not in map(_as_int, x) and x[1] != 0:
        return _UNITY if x[0] == x[1] else Fraction(x[0], x[1])
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
# The one unit gearbox, also of a link that names none: the int 1, which the
# floors and every (node, gearbox) key read at an int's cost.
_UNITY = 1
_NUMBER_TYPES = {int, float}  # what json.loads makes of a number; bool is its own type


def _per_node(n: int | None):
    """The kind of a per-node field: one number for all ``n`` nodes, or a list
    of ``n`` numbers. With ``n`` None, a node count already rejected, a list
    of any length is read and one number is not broadcast. A list is checked
    by scans over the whole list; a violation names the list, not a value."""

    def read(x) -> tuple[float, ...] | None:
        if type(x) is not list:
            one = _as_float(x)  # a dict is wrong even at n 0
            return None if one is None else (one,) * (1 if n is None else n)
        if n not in (None, len(x)) or not set(map(type, x)) <= _NUMBER_TYPES:
            return None
        try:
            vals = tuple(map(float, x))
        except OverflowError:
            return None
        return vals if all(map(math.isfinite, vals)) else None

    return (f"a number or a list of {'n_nodes' if n is None else n} numbers", read)


# An edge field's keys: shared, a->b, b->a.
_LATENCY = ("latency", "latency_ab", "latency_ba")
_GEARBOXES = ("gearbox", "gearbox_ab", "gearbox_ba")
_BETA0S = ("beta0", "beta0_ab", "beta0_ba")


class _Reader:
    """Walks the raw dict, collecting violations with field paths."""

    def __init__(self):
        self.violations: list[Violation] = []

    def bad(self, name: str, path: str, detail: str) -> None:
        self.violations.append(Violation(name, path, detail))

    def read(self, x, path: str, key: str, kind, default=None, required=True):
        """``x``, the value of the field ``path + key``, read as ``kind``; or
        ``default`` if it is null (absent) or wrong."""
        if x is None:
            if required:
                self.bad("missing_field", path + key, f"required: {kind[0]}")
            return default
        val = kind[1](x)
        if val is None:
            self.bad("wrong_type", path + key, f"expected {kind[0]}, got {x!r}")
            return default
        return val

    def value(self, raw: dict, key: str, path: str, kind, default=None, required=True):
        """The field ``key`` of ``raw``, read as ``kind``."""
        return self.read(raw.get(key), path, key, kind, default, required)

    def section(self, raw: dict, key: str, path: str, keys: set[str], required=True):
        """The object at ``key``, its keys checked against ``keys``."""
        val = self.value(raw, key, path, _OBJECT, required=required)
        if val is not None:
            self.check_keys(val, keys, f"{path}{key}.")
        return val

    def directions(self, path: str, keys: tuple, kind, default, shared, ab, ba) -> tuple:
        """(a->b, b->a) values of the edge field with these ``keys`` and raw
        values: each direction falls back to the shared value, which falls
        back to ``default``."""
        if shared is not None:
            default = self.read(shared, path, keys[0], kind, default)
        return (
            default if ab is None else self.read(ab, path, keys[1], kind, default),
            default if ba is None else self.read(ba, path, keys[2], kind, default),
        )

    def check_keys(self, raw: dict, allowed: set[str], path: str) -> None:
        for key in raw:
            if key not in allowed:
                self.bad("unknown_field", f"{path}{key}", "not part of the schema")

    def edges(self, edges_raw: list, default_beta0: int | None) -> tuple[dict, dict]:
        """The directed links and their initial occupancies.

        One pass over the keys each edge has sorts its values into place and
        flags unknown keys in key order; the values are then read in the
        documented order. Equal links share one ``Link``.
        """
        links: dict[tuple[int, int], Link] = {}
        beta0: dict[tuple[int, int], int] = {}
        shared: dict = {}

        def link(latency: float, gearbox: int | Fraction) -> Link:
            # -0.0 == 0.0 as a key, so a zero (rejected later either way) is
            # keyed by its text; _UNITY is the one unit gearbox.
            key = latency if latency else repr(latency)
            if gearbox is not _UNITY:
                key = (key, gearbox.numerator, gearbox.denominator)
            lk = shared.get(key)
            if lk is None:
                lk = shared[key] = Link(latency=latency, gearbox=gearbox)
            return lk

        for idx, edge in enumerate(edges_raw):
            path = f"topology.edges[{idx}]."
            if not isinstance(edge, dict):
                self.bad("wrong_type", path[:-1], "expected an edge object")
                continue
            a = b = lat = lat_ab = lat_ba = gear = gear_ab = gear_ba = b0 = b0_ab = b0_ba = None
            for key, val in edge.items():
                if key == "a":
                    a = val
                elif key == "b":
                    b = val
                elif key == "latency":
                    lat = val
                elif key == "latency_ab":
                    lat_ab = val
                elif key == "latency_ba":
                    lat_ba = val
                elif key == "gearbox":
                    gear = val
                elif key == "gearbox_ab":
                    gear_ab = val
                elif key == "gearbox_ba":
                    gear_ba = val
                elif key == "beta0":
                    b0 = val
                elif key == "beta0_ab":
                    b0_ab = val
                elif key == "beta0_ba":
                    b0_ba = val
                else:
                    self.bad("unknown_field", path + key, "not part of the schema")
            if type(a) is not int or type(b) is not int:  # a violation to name
                a = self.read(a, path, "a", _INTEGER)
                b = self.read(b, path, "b", _INTEGER)
                if a is None or b is None:
                    continue
            ab, ba = (a, b), (b, a)
            if ab in links or ba in links:
                self.bad("duplicate_edge", path[:-1], f"edge ({a},{b}) already defined")
                continue
            lat_ab, lat_ba = self.directions(path, _LATENCY, _NUMBER, None, lat, lat_ab, lat_ba)
            if lat_ab is None or lat_ba is None:
                self.bad("missing_field", path + "latency", "each direction needs a latency")
                continue
            # A gearbox or beta0 that the edge gives in none of its spellings
            # takes its default without a read.
            if gear is None and gear_ab is None and gear_ba is None:
                gear_ab = gear_ba = _UNITY
            else:
                gear_ab, gear_ba = self.directions(
                    path, _GEARBOXES, _GEARBOX, _UNITY, gear, gear_ab, gear_ba
                )
            if b0 is None and b0_ab is None and b0_ba is None:
                b0_ab = b0_ba = default_beta0
            else:
                b0_ab, b0_ba = self.directions(
                    path, _BETA0S, _INTEGER, default_beta0, b0, b0_ab, b0_ba
                )
            if b0_ab is None or b0_ba is None:
                self.bad(
                    "beta0_missing",
                    path[:-1],
                    "no initial occupancy given and no params.beta0 default",
                )
                continue
            links[ab] = lk = link(lat_ab, gear_ab)
            # Directions that read the same shared values need no second lookup.
            links[ba] = lk if lat_ba is lat_ab and gear_ba is gear_ab else link(lat_ba, gear_ba)
            beta0[ab] = b0_ab
            beta0[ba] = b0_ba
        return links, beta0


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
        # Before a scalar is broadcast to n_nodes values.
        if abs(n_nodes) > MAX_EXACT_INT:
            r.bad("value_out_of_range", "topology.n_nodes", "magnitude above 2**53")
            n_nodes = None
        elif n_nodes >= MAX_NODES:
            r.bad("value_out_of_range", "topology.n_nodes", too_many_nodes(n_nodes))
            n_nodes = None
        capacity = r.value(topo_raw, "buffer_capacity", "topology.", _INTEGER, required=False)
        edges_raw = topo_raw.get("edges")
        if not isinstance(edges_raw, list):
            r.bad("wrong_type", "topology.edges", "expected a list of edge objects")
            edges_raw = []
        default_beta0 = r.value(par_raw or {}, "beta0", "params.", _INTEGER, required=False)
        links, beta0 = r.edges(edges_raw, default_beta0)

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
    elif t_max > 0:
        r.violations += engine.check_grid(t_max, grid)
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
    canon = cfg.to_dict()  # built once: hashed, then recorded
    trace.fingerprint = _fingerprint(canon)
    trace.meta = {"config": canon, "t_max": t, "grid_dt": g}
    return trace
