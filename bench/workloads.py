"""Workload generators and the pipelines the benchmark times.

Each workload turns a seed into config text (the only thing the simulator
receives) and runs that text through the package's public functions. A
pipeline returns an ``Outcome``: a digest of what the run produced, the
simulated counts, and the result of the output checks. The traced variants
repeat the same calls with spans around each call into a layer, so their
digest must equal the untraced one.

Why these three workloads: the cost of a run sits in a different layer
depending on the input, and no single input shows all of them.

* ``tri-run``: only 3 nodes and about 20k grid rows, so resampling and
  serialization do most of the work and the scheduler does almost none; it
  also reads the trace back, so it writes and reads the same format.
* ``ring-loop``: almost all time goes to the least-advanced-first loop; node
  selection and neighbor lookup grow with N while resampling is negligible.
* ``mesh-verify``: the only workload where the frame-level replay and compare
  dominate, and the only one with non-unit gearboxes.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import afmsim
from afmsim import engine, oracle

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
TRIANGLE3 = ROOT / "scenarios" / "triangle3.json"

# Shared model parameters of the generated scenarios (those of triangle3).
_P, _D, _OMEGA_MIN, _EPOCH, _BETA0, _K_P = 10, 2, 0.1, -25.0, 50, 0.01


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _r(x: float) -> float:
    return round(x, 6)


def tri_text(seed: int, t_max: float = 10000.0) -> str:
    """The shipped triangle3 scenario at horizon ``t_max``; seed 0 keeps the
    shipped parameters, any other seed jitters theta0 and omega_u."""
    doc = json.loads(TRIANGLE3.read_text(encoding="utf-8"))
    par = doc["params"]
    if seed != 0:
        rng = random.Random(seed)
        par["theta0"] = [_r(th + rng.uniform(-0.05, 0.05)) for th in par["theta0"]]
        par["omega_u"] = [_r(w * (1.0 + rng.uniform(-0.02, 0.02))) for w in par["omega_u"]]
    doc["run"] = {"t_max": t_max, "output_grid": 0.5, "seed": seed}
    return _dump(doc)


def _doc(n, edges, theta0, omega_u, t_max, grid):
    return {
        "topology": {"n_nodes": n, "buffer_capacity": None, "edges": edges},
        "params": {
            "p": _P,
            "d": _D,
            "omega_min": _OMEGA_MIN,
            "epoch": _EPOCH,
            "beta0": _BETA0,
            "theta0": theta0,
            "omega_u": omega_u,
        },
        "controller": {"kind": "proportional", "k_p": _K_P},
        "run": {"t_max": t_max, "output_grid": grid},
    }


def ring_text(seed: int, n: int = 256, t_max: float = 250.0, grid: float = 25.0) -> str:
    """Ring of ``n`` nodes (degree 2), unit gearboxes and latencies, omega_u
    drawn from U[0.9, 2.1]."""
    rng = random.Random(seed)
    theta0 = [_r(rng.uniform(0.05, 0.95)) for _ in range(n)]
    omega_u = [_r(rng.uniform(0.9, 2.1)) for _ in range(n)]
    edges = [{"a": i, "b": i % n + 1, "latency": 1.0} for i in range(1, n + 1)]
    return _dump(_doc(n, edges, theta0, omega_u, t_max, grid))


_GEARS = ([2, 1], [3, 2], [1, 2])


def mesh_text(
    seed: int, n: int = 12, chords: int = 8, t_max: float = 1000.0, grid: float = 0.5
) -> str:
    """Connected mesh: a ring of ``n`` plus ``chords`` random chords.

    Latencies per direction come from U[0.5, 3]; half of the edges (chosen by
    the seed) carry a gearbox of 2/1, 3/2 or 1/2 in both directions, the
    three ratios in turn.
    theta0 stays in [0.05, 0.45] so every scaled initial phase clears a frame
    boundary.
    """
    rng = random.Random(seed)
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    taken = {frozenset(p) for p in pairs}
    while len(pairs) < n + chords:
        a, b = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if a != b and frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            pairs.append((a, b))
    # A fixed mix of gear ratios keeps the replayed frame count, and so the
    # run time, close across seeds.
    order = list(range(len(pairs)))
    rng.shuffle(order)
    gear = {e: _GEARS[k % len(_GEARS)] for k, e in enumerate(order[: len(pairs) // 2])}
    edges = []
    for idx, (a, b) in enumerate(pairs):
        edge = {
            "a": a,
            "b": b,
            "latency_ab": _r(rng.uniform(0.5, 3.0)),
            "latency_ba": _r(rng.uniform(0.5, 3.0)),
        }
        if idx in gear:
            edge["gearbox"] = list(gear[idx])
        edges.append(edge)
    theta0 = [_r(rng.uniform(0.05, 0.45)) for _ in range(n)]
    # Evenly spread over [0.9, 2.1] in a seeded order: with only 12 nodes,
    # independent draws would move the mean frequency, and so the step count,
    # by several percent from seed to seed.
    omega_u = [_r(0.9 + 1.2 * (k + rng.uniform(0.25, 0.75)) / n) for k in range(n)]
    rng.shuffle(omega_u)
    return _dump(_doc(n, edges, theta0, omega_u, t_max, grid))


@dataclass
class Outcome:
    """What one pipeline run produced, reduced to what the benchmark compares."""

    digest: str
    counts: dict[str, int]
    errors: list[str] = field(default_factory=list)


def _series_digest(trace: engine.Trace) -> str:
    doc = {
        "grid": trace.grid,
        "beta": sorted([list(k), v] for k, v in trace.beta.items()),
        "gamma": sorted([list(k), v] for k, v in trace.gamma.items()),
        "fatal": [[e.kind, list(e.link), e.t, e.occupancy] for e in trace.fatal_events],
    }
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def _files_digest(paths: dict[str, Path]) -> str:
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode() + b"\0" + paths[name].read_bytes() + b"\0")
    return h.hexdigest()


def _counts(cfg: afmsim.ScenarioConfig, trace: engine.Trace) -> dict[str, int]:
    links = len(cfg.scenario.topology.links)
    return {
        "engine.steps": len(trace.samples),
        "engine.knots": sum(len(k) for k in trace.knots.values()),
        "engine.grid_points": len(trace.grid),
        "engine.directed_links": links,
        "engine.occupancy_evals": len(trace.grid) * links,
        "engine.fatal_events": len(trace.fatal_events),
    }


def _check_trace(cfg: afmsim.ScenarioConfig, trace: engine.Trace) -> list[str]:
    """Invariants every finished trace must satisfy, independent of timing."""
    errors = []
    topo, par = cfg.scenario.topology, cfg.scenario.params
    t_max, grid_dt = cfg.run.t_max, cfg.run.output_grid
    expected_points = int(t_max // grid_dt) + 1
    if len(trace.grid) != expected_points:
        errors.append(f"grid has {len(trace.grid)} points, expected {expected_points}")
    short = [i for i in topo.nodes() if trace.knots[i][-1][0] < t_max]
    if short:
        errors.append(f"trajectories of nodes {short[:5]} end before t_max")
    for key, series in trace.beta.items():
        if series[0] != par.beta0[key]:
            errors.append(f"beta{key}(0) = {series[0]}, configured {par.beta0[key]}")
            break
    # With unit gearboxes each edge conserves frames: buffered plus in flight,
    # summed over both directions, is the same at every grid point.
    for (a, b) in topo.edges():
        if topo.links[(a, b)].gearbox != 1 or topo.links[(b, a)].gearbox != 1:
            continue
        total = [
            x + y + u + v
            for x, y, u, v in zip(
                trace.beta[(a, b)], trace.gamma[(a, b)], trace.beta[(b, a)], trace.gamma[(b, a)]
            )
        ]
        if min(total) != max(total):
            errors.append(f"edge {a}--{b} does not conserve frames")
            break
    return errors


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else Tracer.NULL


def simulate_traced(scenario, spec, t_max: float, grid_dt: float, tracer: Tracer) -> engine.Trace:
    """``engine.simulate`` rebuilt from its public calls, with a span around
    each. ``engine.step`` selects the node again, so every traced step runs
    the selection twice; ``engine.select`` spans time the first of the two."""
    par = scenario.params
    with tracer.span("controllers.admissible"):
        verdict = afmsim.is_admissible(spec, par.omega_u, par.omega_min)
    if not verdict.ok:
        raise afmsim.AdmissibilityError(f"controller rejected: {verdict.witness}")
    controllers = afmsim.make_controllers(spec, scenario.topology.n_nodes)
    with tracer.span("engine.init_state"):
        state = afmsim.init_state(scenario, controllers)
    with tracer.span("engine.loop"):
        while True:
            with tracer.span("engine.select"):
                i = engine.select_node(state)
            if state.trajectories[i].max_dom() >= t_max:
                break
            with tracer.span("engine.step"):
                afmsim.step(state)
    with tracer.span("engine.build_trace"):
        return engine.build_trace(state, t_max, grid_dt)


def _run_config(cfg: afmsim.ScenarioConfig, tracer: Tracer | None) -> engine.Trace:
    if tracer is None:
        return afmsim.run_config(cfg)
    t, g = cfg.run.t_max, cfg.run.output_grid
    trace = simulate_traced(cfg.scenario, cfg.controller, t, g, tracer)
    with tracer.span("config.fingerprint"):
        trace.fingerprint = cfg.fingerprint()
        trace.meta = {"config": cfg.to_dict(), "t_max": t, "grid_dt": g}
    return trace


def run_tri(cfg: afmsim.ScenarioConfig, work_dir: Path, tracer: Tracer | None = None) -> Outcome:
    """``afmsim run`` in process: simulate, write the CSV set, read it back,
    summarize."""
    out = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        trace = _run_config(cfg, tracer)
        with _span(tracer, "traceio.write_trace"):
            paths = afmsim.write_trace(trace, out / "trace")
        with _span(tracer, "traceio.read_trace"):
            back = afmsim.read_trace(out / "trace")
        with _span(tracer, "traceio.summarize"):
            afmsim.summarize(back)
        result = Outcome(_files_digest(paths), _counts(cfg, trace), _check_trace(cfg, trace))
        result.counts["traceio.bytes_written"] = sum(p.stat().st_size for p in paths.values())
    finally:
        shutil.rmtree(out)
    if back.beta != trace.beta or back.gamma != trace.gamma or len(back.grid) != len(trace.grid):
        result.errors.append("trace read back differs from the trace written")
    return result


def run_ring(cfg: afmsim.ScenarioConfig, work_dir: Path, tracer: Tracer | None = None) -> Outcome:
    """Simulate and summarize in memory."""
    trace = _run_config(cfg, tracer)
    with _span(tracer, "traceio.summarize"):
        afmsim.summarize(trace)
    return Outcome(_series_digest(trace), _counts(cfg, trace), _check_trace(cfg, trace))


def run_mesh(cfg: afmsim.ScenarioConfig, work_dir: Path, tracer: Tracer | None = None) -> Outcome:
    """``afmsim verify`` in process: simulate, replay every frame, compare."""
    scenario, t_max, grid_dt = cfg.scenario, cfg.run.t_max, cfg.run.output_grid
    if tracer is None:
        report = afmsim.verify_scenario(scenario, cfg.controller, t_max, grid_dt=grid_dt)
        trace, result, mismatches = report.trace, report.result, report.mismatches
        comparisons = report.n_comparisons
    else:
        trace = simulate_traced(scenario, cfg.controller, t_max, grid_dt, tracer)
        with tracer.span("oracle.rebuild"):
            trajectories = oracle.rebuild_trajectories(trace, scenario)
        horizon = min(trajectories[i].max_dom() for i in scenario.topology.nodes())
        with tracer.span("oracle.replay"):
            result = afmsim.replay(trajectories, scenario, horizon)
        with tracer.span("oracle.compare"):
            mismatches = afmsim.compare(result, trace, scenario, trajectories)
        comparisons = len(trace.samples) * len(scenario.topology.links)
    outcome = Outcome(_series_digest(trace), _counts(cfg, trace), _check_trace(cfg, trace))
    # Frame events the replay tracked: sends, arrivals (frames already in
    # flight at time zero included) and consumptions.
    outcome.counts["oracle.frames"] = sum(
        len(lr.send_times) + len(lr.arrival_times) + len(lr.consume_times)
        for lr in result.links.values()
    )
    outcome.counts["oracle.comparisons"] = comparisons
    outcome.counts["oracle.mismatches"] = len(mismatches)
    if mismatches:
        first = mismatches[0]
        outcome.errors.append(
            f"{len(mismatches)} mismatches, first at t={first.t} link {first.link}:"
            f" frame-level {first.oracle} vs closed-form {first.formula}"
        )
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_text: Callable[[int], str]
    run: Callable[..., Outcome]  # (cfg, work_dir, tracer=None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tri-run",
            "3 nodes and ~20k grid rows: resampling and serialization dominate, the"
            " scheduler does almost nothing; writes and reads back the same trace format",
            tri_text,
            run_tri,
        ),
        Workload(
            "ring-loop",
            "256-node ring on a coarse grid: the least-advanced-first loop dominates,"
            " node selection and neighbor lookup grow with N, resampling is negligible",
            ring_text,
            run_ring,
        ),
        Workload(
            "mesh-verify",
            "12-node geared mesh under verify: frame-level replay and compare dominate,"
            " and only this workload takes the non-unit gearbox branches",
            mesh_text,
            run_mesh,
        ),
    )
}
