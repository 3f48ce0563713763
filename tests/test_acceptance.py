"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The randomized scenarios are seeded, so a green suite stays green.
"""

import math
import random
import time

import pytest

from afmsim.cli import main as cli_main
from afmsim.controllers import ControllerSpec, is_admissible, make_controllers
from afmsim.engine import (
    buffer_occupancy,
    compute_lambdas,
    init_state,
    link_occupancy,
    scaled_floor,
    simulate,
    step,
)
from afmsim.oracle import rebuild_trajectories, verify_scenario
from afmsim.scenarios import gearbox_pair, random_scenario, triangle3
from afmsim.trajectory import AdmissibilityError

from conftest import relabeled, tied_triangle

SEED = 20260808
RANDOM_SCENARIOS = 20
T_EQUIV = 200.0


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def scenario_set():
    rng = random.Random(SEED)
    return [triangle3()] + [random_scenario(rng) for _ in range(RANDOM_SCENARIOS)]


@pytest.fixture(scope="module")
def equivalence_reports(scenario_set):
    start = time.perf_counter()
    reports = [
        verify_scenario(cfg.scenario, cfg.controller, T_EQUIV) for cfg in scenario_set
    ]
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_oracle_equivalence(scenario_set, equivalence_reports):
    reports, elapsed = equivalence_reports
    mismatches = sum(len(r.mismatches) for r in reports)
    comparisons = sum(r.n_comparisons for r in reports)
    verdict(
        1,
        mismatches == 0 and elapsed < 30.0,
        f"{comparisons} frame-level vs closed-form occupancies across "
        f"{len(reports)} scenarios, {mismatches} mismatches, {elapsed:.2f} s",
    )


def test_criterion_2_conservation(scenario_set, equivalence_reports):
    reports, _ = equivalence_reports
    rng = random.Random(SEED + 1)
    checked = 0
    for cfg, report in zip(scenario_set, reports):
        sc = cfg.scenario
        trajs = rebuild_trajectories(report.trace, sc)
        lam = compute_lambdas(sc, trajs)
        for (a, b) in sc.topology.edges():
            link_ab = sc.topology.links[(a, b)]
            link_ba = sc.topology.links[(b, a)]
            for _ in range(1000):
                t = rng.uniform(0.0, T_EQUIV)
                total = (
                    buffer_occupancy(trajs[a], trajs[b], lam[(a, b)], link_ab.latency, t, link_ab.gearbox)
                    + link_occupancy(trajs[a], t, link_ab.latency, link_ab.gearbox)
                    + buffer_occupancy(trajs[b], trajs[a], lam[(b, a)], link_ba.latency, t, link_ba.gearbox)
                    + link_occupancy(trajs[b], t, link_ba.latency, link_ba.gearbox)
                )
                assert total == lam[(a, b)] + lam[(b, a)], (a, b, t)
                checked += 1
    verdict(2, True, f"beta+gamma conserved, integer-exact, at {checked} random times")


def test_criterion_3_lambda_invariance(scenario_set, equivalence_reports):
    reports, _ = equivalence_reports
    rng = random.Random(SEED + 2)
    checked = 0
    for cfg, report in zip(scenario_set, reports):
        sc = cfg.scenario
        trajs = rebuild_trajectories(report.trace, sc)
        lam = compute_lambdas(sc, trajs)
        for (a, b) in sc.topology.directed_links():
            link = sc.topology.links[(a, b)]
            for _ in range(1000):
                t = rng.uniform(0.0, T_EQUIV)
                occ = buffer_occupancy(trajs[a], trajs[b], lam[(a, b)], link.latency, t, link.gearbox)
                recomputed = (
                    occ
                    - scaled_floor(link.gearbox, trajs[a].eval(t - link.latency))
                    + scaled_floor(link.gearbox, trajs[b].eval(t))
                )
                assert recomputed == lam[(a, b)], (a, b, t)
                checked += 1
    verdict(3, True, f"lambda recomputation exact at {checked} random times")


def test_criterion_4_order_independence():
    cfg = tied_triangle()
    t_run = 200.0
    base = simulate(cfg.scenario, cfg.controller, t_run)
    ids = [1, 2, 3]
    # Ties go to the smallest id; on reversed labels that is the largest
    # original id, so this run breaks every tie the other way.
    rev = {i: len(ids) + 1 - i for i in ids}
    alt = simulate(relabeled(cfg.scenario, rev), cfg.controller, t_run)
    tied_at = {}
    for rec in base.samples:
        tied_at.setdefault(rec.t_apply, set()).add(rec.node)
    ties = sum(len(nodes) > 1 for nodes in tied_at.values())
    assert ties > 0
    assert [r.node for r in base.samples] != [rev[r.node] for r in alt.samples]
    assert base.knots == {i: alt.knots[rev[i]] for i in ids}
    rng = random.Random(SEED + 3)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    perm = dict(zip(ids, shuffled))
    shuffled_run = simulate(relabeled(cfg.scenario, perm), cfg.controller, t_run)
    worst = 0.0
    for i in ids:
        other_knots = shuffled_run.knots[perm[i]]
        assert len(base.knots[i]) == len(other_knots)
        for (t1, p1), (t2, p2) in zip(base.knots[i], other_knots):
            worst = max(worst, abs(t1 - t2), abs(p1 - p2))
    verdict(
        4,
        worst <= 1e-9,
        f"ties broken both ways ({ties} tied steps of {len(base.samples)}) and "
        f"relabeling {perm} give identical knots (worst delta {worst:.2e})",
    )


def test_criterion_5_reference_run_convergence():
    cfg = triangle3()
    start = time.perf_counter()
    trace = simulate(cfg.scenario, cfg.controller, 500.0)
    elapsed = time.perf_counter() - start
    underflows = [ev for ev in trace.fatal_events if ev.kind == "underflow"]
    final = [trace.omega[i][-1] for i in (1, 2, 3)]
    spread = max(final) - min(final)
    mean = sum(final) / len(final)
    mirror_ok = True
    for (a, b) in cfg.scenario.topology.edges():
        fwd, rev = trace.beta[(a, b)], trace.beta[(b, a)]
        gf, gr = trace.gamma[(a, b)], trace.gamma[(b, a)]
        base = fwd[0] + rev[0]
        for idx in range(len(trace.grid)):
            if abs(fwd[idx] + rev[idx] - base) > gf[idx] + gr[idx]:
                mirror_ok = False
    verdict(
        5,
        not underflows and spread < 0.01 * mean and mirror_ok and elapsed < 1.0,
        f"no underflow, spread {spread:.2e} ({100 * spread / mean:.5f}% of mean "
        f"{mean:.6g}), occupancy sums mirrored within gamma, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_6_initial_condition_exactness(scenario_set):
    checked = 0
    for cfg in scenario_set:
        sc = cfg.scenario
        state = init_state(sc, make_controllers(cfg.controller, sc.topology.n_nodes))
        for i in sc.topology.nodes():
            traj = state.trajectories[i]
            assert traj.eval(0.0) == sc.params.theta0[i - 1]
            first_actuation = traj.max_dom()
            expected = sc.params.d / sc.params.omega_init1[i - 1]
            assert abs(first_actuation - expected) <= 1e-12 * abs(expected)
        for (a, b) in sc.topology.directed_links():
            link = sc.topology.links[(a, b)]
            occ = buffer_occupancy(
                state.trajectories[a], state.trajectories[b],
                state.lam[(a, b)], link.latency, 0.0, link.gearbox,
            )
            assert occ == sc.params.beta0[(a, b)]
            checked += 1
    verdict(
        6,
        True,
        f"theta(0), beta(0), and first actuation exact across "
        f"{len(scenario_set)} scenarios ({checked} links)",
    )


def test_criterion_7_admissibility_enforcement():
    cfg = triangle3()
    sc = cfg.scenario
    # clamp floor -2.0 + smallest omega_u 1.1 = -0.9 <= omega_min 0.1
    forced = ControllerSpec(kind="proportional", k_p=0.01, clamp=(-2.0, -2.0))
    static = is_admissible(forced, sc.params.omega_u, sc.params.omega_min)
    static_rejects = not static.ok
    with pytest.raises(AdmissibilityError):
        simulate(sc, forced, 50.0)  # static gate
    halted_at_first_step = False
    state = init_state(sc, make_controllers(forced, sc.topology.n_nodes))  # unvetted
    try:
        step(state)
    except AdmissibilityError as exc:
        halted_at_first_step = exc.step == 0
    verdict(
        7,
        static_rejects and halted_at_first_step,
        f"static rejection ({static.witness!r}) and first-step halt both observed",
    )


def test_criterion_8_gearbox_equivalence():
    cfg = gearbox_pair()
    report = verify_scenario(cfg.scenario, cfg.controller, 100.0)
    verdict(
        8,
        report.ok and not report.trace.fatal,
        f"2:1 gearbox link: {report.n_comparisons} comparisons, "
        f"{len(report.mismatches)} mismatches",
    )


def test_criterion_9_run_determinism(tmp_path):
    config = str(tmp_path / "scenario.json")
    from afmsim.config import write_config

    write_config(triangle3(), config)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", "--config", config, "--t-max", "50", "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", config, "--t-max", "50", "--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("nodes.csv", "buffers.csv", "events.csv", "meta.json")
    )
    verdict(9, identical, "consecutive run invocations byte-identical across all outputs")


# -- paper-level gates ----------------------------------------------------------


def equilibrium(cfg):
    """Predicted common frequency of a proportional run on unit gearboxes,
    and its tolerance.

    Summed over every directed link, beta telescopes to Lambda - sum(gamma),
    so summing the controller law over the nodes gives
    n * w - sum(omega_u) = k_p * (Lambda - sum(gamma) - m * beta_ref). At a
    common frequency w each gamma is within one frame of w * latency, so
    w = (sum(omega_u) + k_p * (Lambda - m * beta_ref)) / (n + k_p * L) up to
    k_p * m / (n + k_p * L), where L is the summed latency of the m links.
    """
    sc, spec = cfg.scenario, cfg.controller
    links = sc.topology.links
    assert spec.kind == "proportional" and all(lk.gearbox == 1 for lk in links.values())
    lam = init_state(sc, make_controllers(spec, sc.topology.n_nodes)).lam
    m, total_latency = len(links), sum(lk.latency for lk in links.values())
    scale = sc.topology.n_nodes + spec.k_p * total_latency
    numerator = sum(sc.params.omega_u) + spec.k_p * (sum(lam.values()) - m * spec.beta_ref)
    return numerator / scale, spec.k_p * m / scale


def test_criterion_10_proportional_equilibrium():
    cfg = triangle3()
    w, tol = equilibrium(cfg)
    settled = [f[-1] for f in simulate(cfg.scenario, cfg.controller, 500.0).omega.values()]
    assert all(abs(f - w) <= tol for f in settled), (settled, w, tol)
    # The random set has not settled by T=2000 (spreads of 1e-3 to 1e-2), so
    # only the mean of the final frequencies is held to the law there.
    worst = 0.0
    for seed in range(20):
        rand = random_scenario(random.Random(seed))
        w_rand, tol_rand = equilibrium(rand)
        final = [f[-1] for f in simulate(rand.scenario, rand.controller, 2000.0).omega.values()]
        worst = max(worst, abs(sum(final) / len(final) - w_rand) / tol_rand)
    verdict(
        10,
        worst <= 1.0,
        f"triangle3 settles at {settled[0]:.5f}, predicted {w:.5f} +- {tol:.4f}; the mean "
        f"final frequency of 20 random runs is off by at most {worst:.2f} tolerances",
    )


# -- precision gates ------------------------------------------------------------
#
# A crossing search that corrects the oracle's crossing times with
# math.nextafter needs every floor of a phase to be non-decreasing in time.
# Raw eval is not: one ulp before the t=0 knot it can read above theta0,
# because the history segment starts from the rounded theta0 + omega_init2 *
# epoch. The floors must still never drop.


def test_scaled_floors_never_drop_across_a_knot(scenario_set, equivalence_reports):
    reports, _ = equivalence_reports
    checked = 0
    for cfg, report in zip(scenario_set, reports):
        sc = cfg.scenario
        for i, traj in rebuild_trajectories(report.trace, sc).items():
            gearboxes = {lk.gearbox for (a, b), lk in sc.topology.links.items() if i in (a, b)}
            first, last = traj.times[0], traj.times[-1]
            for tk in traj.times:
                around = (math.nextafter(tk, -math.inf), tk, math.nextafter(tk, math.inf))
                phases = [traj.eval(t) for t in around if first <= t <= last]
                for g in gearboxes:
                    floors = [scaled_floor(g, ph) for ph in phases]
                    assert floors == sorted(floors), (i, tk, g, phases)
                    checked += 1
    assert checked > 5000  # 5109 (knot, gearbox) pairs on this set


def test_triangle3_calibration_phase_is_pinned():
    # Ideally -1.0, a frame boundary; the float phase sits just above it, and
    # the calibration floor reads it as frame -1.
    cfg = triangle3()
    state = init_state(cfg.scenario, make_controllers(cfg.controller, 3))
    phase = state.trajectories[1].eval(-1.0)
    assert phase == -0.9999999999999964
    assert math.floor(phase) == -1
