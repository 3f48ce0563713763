"""Controller behavior and admissibility checks."""

import math

import pytest
from hypothesis import given, strategies as st

from afmsim.controllers import (
    Controller,
    ControllerSpec,
    is_admissible,
    make_controllers,
)


def test_proportional_sum_of_occupancies():
    ctrl = Controller(ControllerSpec(kind="proportional", k_p=0.01))
    assert ctrl.update(((2, 50), (3, 50))) == 1.0


def test_proportional_zero_occupancy():
    ctrl = Controller(ControllerSpec(kind="proportional", k_p=0.01))
    assert ctrl.update(((2, 0),)) == 0.0


def test_zero_controller():
    ctrl = Controller(ControllerSpec(kind="zero"))
    assert ctrl.update(((2, 123), (3, -5))) == 0.0


def test_beta_ref_offsets_the_sum():
    ctrl = Controller(ControllerSpec(kind="proportional", k_p=0.1, beta_ref=10.0))
    assert ctrl.update(((2, 12), (3, 8))) == pytest.approx(0.0)
    assert ctrl.update(((2, 20), (3, 20))) == pytest.approx(2.0)


def test_clamp_saturates_both_sides():
    spec = ControllerSpec(kind="proportional", k_p=1.0, clamp=(-0.5, 0.5))
    ctrl = Controller(spec)
    assert ctrl.update(((2, 100),)) == 0.5
    assert ctrl.update(((2, 0),)) == 0.0
    down = Controller(ControllerSpec(kind="proportional", k_p=1.0, beta_ref=100.0, clamp=(-0.5, 0.5)))
    assert down.update(((2, 0),)) == -0.5


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Controller(ControllerSpec(kind="pid"))


def test_custom_needs_both_functions():
    with pytest.raises(ValueError):
        Controller(ControllerSpec(kind="custom"))


def test_custom_state_space_controller():
    # integrator over the summed occupancy; state updated before output
    spec = ControllerSpec(
        kind="custom",
        init_state=0.0,
        state_fn=lambda xi, y: xi + sum(occ for _, occ in y),
        output_fn=lambda xi, y: 0.001 * xi,
    )
    ctrl = Controller(spec)
    assert ctrl.update(((2, 10),)) == pytest.approx(0.01)
    assert ctrl.update(((2, 10),)) == pytest.approx(0.02)


def test_determinism_bit_for_bit():
    spec = ControllerSpec(kind="proportional", k_p=0.017, beta_ref=3.5)
    seq = [((2, 41), (3, 17)), ((2, 40), (3, 18)), ((2, 39), (3, 19))]
    a = Controller(spec)
    b = Controller(spec)
    assert [a.update(y) for y in seq] == [b.update(y) for y in seq]


def test_make_controllers_independent_instances():
    spec = ControllerSpec(
        kind="custom",
        init_state=0,
        state_fn=lambda xi, y: xi + 1,
        output_fn=lambda xi, y: 0.0,
    )
    ctrls = make_controllers(spec, 3)
    ctrls[0].update(())
    assert ctrls[0].state == 1
    assert ctrls[1].state == 0


@given(st.integers(0, 500), st.integers(0, 500))
def test_proportional_monotone_in_occupancy(occ_a, occ_b):
    # with equal specs, the node seeing more buffered frames corrects harder
    spec = ControllerSpec(kind="proportional", k_p=0.01)
    c_a = Controller(spec).update(((2, occ_a),))
    c_b = Controller(spec).update(((2, occ_b),))
    if occ_a > occ_b:
        assert c_a > c_b
    elif occ_a < occ_b:
        assert c_a < c_b
    else:
        assert c_a == c_b


# -- admissibility ------------------------------------------------------------

def test_proportional_reference_scenario_admissible():
    spec = ControllerSpec(kind="proportional", k_p=0.01)
    assert is_admissible(spec, (1.1, 1.4, 2.0), 0.1).ok


def test_zero_controller_boundary_is_inadmissible():
    verdict = is_admissible(ControllerSpec(kind="zero"), (1.0,), 1.0)
    assert not verdict.ok
    assert "node 1" in verdict.witness


def test_clamp_floor_too_low_names_the_numbers():
    verdict = is_admissible(ControllerSpec(kind="zero", clamp=(-0.5, 0.5)), (1.0,), 0.6)
    assert not verdict.ok
    assert "0.5" in verdict.witness and "0.6" in verdict.witness


def test_clamp_makes_custom_admissible():
    spec = ControllerSpec(
        kind="custom",
        init_state=None,
        state_fn=lambda xi, y: xi,
        output_fn=lambda xi, y: -100.0,
        clamp=(-0.1, 0.1),
    )
    assert is_admissible(spec, (1.0,), 0.5).ok


def test_unclamped_custom_is_conservatively_rejected():
    spec = ControllerSpec(
        kind="custom",
        init_state=None,
        state_fn=lambda xi, y: xi,
        output_fn=lambda xi, y: 0.0,
    )
    assert not is_admissible(spec, (1.0,), 0.1).ok


def test_negative_gain_rejected():
    assert not is_admissible(ControllerSpec(kind="proportional", k_p=-0.01), (1.0,), 0.1).ok


def test_beta_ref_lower_bound_checked():
    # floor = -k_p * beta_ref * (n-1) = -0.1*20*1 = -2; 1.5 - 2 <= 0.1
    spec = ControllerSpec(kind="proportional", k_p=0.1, beta_ref=20.0)
    assert not is_admissible(spec, (1.5, 1.5), 0.1).ok
    assert is_admissible(spec, (2.5, 2.5), 0.1).ok


def test_empty_clamp_interval_rejected():
    verdict = is_admissible(ControllerSpec(kind="zero", clamp=(0.5, -0.5)), (1.0,), 0.1)
    assert not verdict.ok


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"k_p": math.nan}, "k_p"),
        ({"k_p": math.inf}, "k_p"),
        ({"beta_ref": math.nan}, "beta_ref"),
        ({"clamp": (math.nan, 0.5)}, "clamp lower bound"),
        ({"clamp": (-0.5, math.inf)}, "clamp upper bound"),
        ({"clamp": (-math.inf, 0.5)}, "clamp lower bound"),
    ],
    ids=[
        "k_p-nan", "k_p-inf", "beta_ref-nan", "clamp-lo-nan", "clamp-hi-inf", "clamp-lo-minus-inf"
    ],
)
def test_non_finite_spec_rejected_naming_the_field(changes, field):
    spec = ControllerSpec(**{"kind": "proportional", "k_p": 0.01, **changes})
    verdict = is_admissible(spec, (1.1, 1.4, 2.0), 0.1)
    assert not verdict.ok
    assert verdict.witness.startswith(f"{field} ") and "not finite" in verdict.witness


@pytest.mark.parametrize(
    "spec, witness",
    [
        (
            ControllerSpec(kind="zero"),
            "zero correction 0.0 + omega_u 1.0 = 1.0 <= omega_min 1.0 at node 2",
        ),
        (
            ControllerSpec(kind="custom", clamp=(-0.5, 0.5)),
            "clamp floor -0.5 + omega_u 1.0 = 0.5 <= omega_min 1.0 at node 2",
        ),
        (
            ControllerSpec(kind="proportional", k_p=0.1, beta_ref=2.0),  # floor -0.1 * 2.0 * (3 - 1)
            "worst-case correction -0.4 + omega_u 1.0 = 0.6 <= omega_min 1.0 at node 2",
        ),
    ],
    ids=["zero", "clamp", "proportional"],
)
def test_every_kind_names_its_floor_and_the_first_failing_node(spec, witness):
    verdict = is_admissible(spec, (2.0, 1.0, 1.0), 1.0)
    assert not verdict.ok
    assert verdict.witness == witness
