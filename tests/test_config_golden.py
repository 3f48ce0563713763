"""Golden violation lists: broken variants of the bundled ``triangle3`` config.

Each case edits the bundled document and pins the full list of violations
that loading it reports, as (name, subject, detail), in order. Together the
cases cover both stages of loading: the schema reader (unknown fields, nulls
and wrong types in each latency spelling, gearbox spellings, per-edge beta0
with and without a default, duplicate and self edges, per-node lists) and
the constraint checks of ``topology.check`` on several links.
"""

import json

import pytest

from afmsim.config import load_config
from afmsim.topology import ValidationError

from conftest import BIG, BUNDLED, bundled_with

NAN = float("nan")
_GEARBOX = "expected an integer, [num, den], or 'num/den' with a nonzero den, got "
_EDGES = ("topology", "edges")


def _with_edge(i, edge):
    """Edge ``i`` of the bundled list replaced by ``edge``."""
    return ((*_EDGES, i), edge)


def _plus_edges(*edges):
    """The bundled edge list with ``edges`` appended."""
    return (_EDGES, json.loads(BUNDLED.read_text())["topology"]["edges"] + list(edges))


# Bundled edges name every per-direction key; these spell an edge out in the
# key order given, so an unknown key can come before or after the known ones.
CASES = {
    "unknown_key_first": [
        _with_edge(0, {"colour": "red", "a": 1, "b": 2, "latency": 1.0, "beta0": 50}),
    ],
    "unknown_key_last": [
        _with_edge(1, {"a": 1, "b": 3, "latency": 1.0, "beta0": 50, "weight": 2, "z": None}),
        (("params", "q"), 3),
        (("extra",), {}),
    ],
    "latency_null_shared": [_with_edge(0, {"a": 1, "b": 2, "latency": None, "beta0": 50})],
    "latency_wrong_type_shared": [_with_edge(0, {"a": 1, "b": 2, "latency": "1.0", "beta0": 50})],
    "latency_null_ab": [
        _with_edge(0, {"a": 1, "b": 2, "latency_ab": None, "latency_ba": 1.0, "beta0": 50}),
    ],
    "latency_wrong_type_ab": [
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "latency_ab": [1.0], "beta0": 50}),
    ],
    "latency_null_ba": [
        _with_edge(2, {"a": 2, "b": 3, "latency_ab": 1.0, "latency_ba": None, "beta0": 50}),
    ],
    "latency_wrong_type_ba": [
        _with_edge(2, {"a": 2, "b": 3, "latency": 2.0, "latency_ba": True, "beta0": 50}),
    ],
    "latency_wrong_in_all_three": [
        _with_edge(
            0, {"a": 1, "b": 2, "latency": "x", "latency_ab": NAN, "latency_ba": None, "beta0": 50}
        ),
    ],
    "missing_latency_hides_bad_gearbox": [
        _with_edge(0, {"a": 1, "b": 2, "gearbox": "x", "gearbox_ab": 0.5, "beta0": "y"}),
    ],
    # Accepted spellings; theta0 puts each scaled phase on a frame boundary,
    # so the report prints the gearbox as it was read.
    "gearbox_int": [
        (("params", "theta0"), [0.5, 0.1, 0.1]),
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "gearbox": 2, "beta0": 50}),
    ],
    "gearbox_list": [
        (("params", "theta0"), [0.5, 0.1, 0.1]),
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "gearbox_ab": [2, 1], "beta0": 50}),
    ],
    "gearbox_string": [
        (("params", "theta0"), [0.1, 0.5, 0.1]),
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "gearbox_ba": "2/1", "beta0": 50}),
    ],
    "gearbox_spaced_string": [
        (("params", "theta0"), [0.1, 0.1, 2 / 3]),
        _with_edge(2, {"a": 2, "b": 3, "latency": 1.0, "gearbox": " 3 / 2 ", "beta0": 50}),
    ],
    "gearbox_zero_denominator": [
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "gearbox": "3/0", "beta0": 50}),
    ],
    "gearbox_float_numerator": [
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "gearbox_ab": [2.0, 1], "beta0": 50}),
    ],
    "gearbox_bool_numerator": [
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "gearbox_ba": [True, 1], "beta0": 50}),
    ],
    "gearbox_and_beta0_wrong_in_one_edge": [
        _with_edge(
            1,
            {"a": 1, "b": 3, "beta0_ba": 2.5, "gearbox_ab": "1/2/3", "latency": 1.0, "beta0": "b"},
        ),
    ],
    "per_edge_beta0_with_default": [
        (("params", "beta0"), 7),
        (("topology", "buffer_capacity"), 40),
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0}),
        _with_edge(1, {"a": 1, "b": 3, "latency": 1.0, "beta0_ab": 45}),
        _with_edge(2, {"a": 2, "b": 3, "latency": 1.0, "beta0": -1, "beta0_ba": 3}),
    ],
    "wrong_shared_fields_fall_back": [
        (("params", "beta0"), 7),
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0, "gearbox": [1, 0], "gearbox_ab": 2,
                       "beta0": "b", "beta0_ab": 3}),
    ],
    "per_edge_beta0_without_default": [
        _with_edge(0, {"a": 1, "b": 2, "latency": 1.0}),
        _with_edge(1, {"a": 1, "b": 3, "latency": 1.0, "beta0_ab": 4}),
        _with_edge(2, {"a": 2, "b": 3, "latency": 1.0, "beta0_ba": None, "beta0": None}),
    ],
    "duplicate_edge": [
        _plus_edges({"a": 1, "b": 2, "zz": 0, "latency": "bad", "beta0": 50}),
    ],
    "reversed_duplicate_edge": [
        _plus_edges(
            {"a": 3, "b": 1, "latency": 1.0, "beta0": 50},
            {"a": 3, "b": 2, "latency": 1.0, "beta0": 50},
        ),
    ],
    "self_edge": [
        _plus_edges(
            {"a": 2, "b": 2, "latency": 1.0, "beta0": 50},
            {"a": 4, "b": 1, "latency": 1.0, "beta0": 50},
        ),
    ],
    "unknown_key_and_bad_endpoints": [
        _with_edge(0, {"q": 1, "a": "x", "b": None, "latency": "bad", "r": 2}),
    ],
    "edge_endpoints_wrong": [
        _with_edge(0, {"b": 2, "latency": 1.0, "beta0": 50}),
        _with_edge(1, {"a": "1", "b": 3.0, "latency": 1.0, "beta0": 50}),
        _with_edge(2, [2, 3]),
    ],
    "zero_and_negative_zero_latency": [
        _with_edge(0, {"a": 1, "b": 2, "latency": 0.0, "beta0": 50}),
        _with_edge(1, {"a": 1, "b": 3, "latency_ab": -0.0, "latency_ba": 0.0, "beta0": 50}),
        _with_edge(2, {"a": 2, "b": 3, "latency": -0.0, "beta0": 50}),
    ],
    "per_node_bad_first": [(("params", "theta0"), ["0.1", 0.1, 0.1])],
    "per_node_bad_middle": [(("params", "omega_u"), [1.1, None, 2.0])],
    "per_node_bad_last": [
        (("params", "omega_init1"), [1.1, 1.4, NAN]),
        (("params", "omega_init2"), [1.1, 1.4, 10**400]),
    ],
    "per_node_wrong_length_and_type": [
        (("params", "theta0"), [0.1, 0.1]),
        (("params", "omega_u"), {"1": 1.1}),
        (("params", "omega_init1"), 1.5),
    ],
    "n_nodes_bool": [(("topology", "n_nodes"), True)],
    "n_nodes_huge": [
        (("topology", "n_nodes"), 2**53 + 1),
        (("params", "theta0"), 0.1),
        (("params", "omega_u"), [1.1, 1.4]),
    ],
    "check_stage_on_several_links": [
        (("topology", "buffer_capacity"), 49),
        (("params", "theta0"), [0.1, 2.0, 0.1]),
        _with_edge(0, {"a": 1, "b": 2, "latency_ab": -1.0, "latency_ba": 1.0, "beta0": 50}),
        _with_edge(1, {"a": 1, "b": 3, "latency": 30.0, "gearbox": "-1/2", "beta0": 10}),
        _with_edge(2, {"a": 2, "b": 3, "latency": 1.0, "gearbox_ab": [3, 1], "beta0_ba": -3,
                       "beta0_ab": 2**53 + 1}),
    ],
    "check_stage_unknown_node": [
        (("topology", "n_nodes"), 2),
        (("params", "theta0"), 0.1),
        (("params", "omega_u"), 1.0),
        (("params", "omega_init1"), None),
        (("params", "omega_init2"), None),
    ],
    # Faults on every node, several per node, so the report is node-major
    # with the node rules in their fixed order within each node.
    "node_rules_on_several_nodes": [
        (("params", "theta0"), [-0.5, 2.0, 1.0000000001]),
        (("params", "omega_u"), [1.0, -1.0, 1.0]),
        (("params", "omega_init1"), [0.05, 1.0, 1.0]),
        (("params", "omega_init2"), [1.0, 1e308, 0.1]),
    ],
    # The upper guard of theta0, a zero omega_u and omega_init1 at omega_min.
    "node_rules_at_the_bounds": [
        (("params", "theta0"), [0.1, 2.9999999999, 0.1]),
        (("params", "omega_u"), [0.0, 1.0, 1.0]),
        (("params", "omega_init1"), [1.1, 0.1, 1.1]),
    ],
    "beta0_negative_and_inexact": [
        _with_edge(1, {"a": 1, "b": 3, "latency": 1.0, "beta0_ab": -(2**53) - 1, "beta0_ba": 50}),
    ],
    "check_stage_overflow": [
        (("params", "epoch"), -1e308),
        (("params", "omega_init2"), [1.1, 1.4, 1e308]),
        (("params", "omega_min"), 1e-320),
    ],
    "sections_controller_and_run": [
        (("controller", "kind"), "pid"),
        (("run",), {"t_max": -1, "output_grid": "fine", "seed": 1.5}),
        (("topology", "edges"), {"a": 1}),
    ],
}


def _report(text):
    try:
        load_config(text)
    except ValidationError as err:
        return [(v.name, v.subject, v.detail) for v in err.violations]
    return []


# The reference reports: any reader must give each list exactly, in order.
GOLDEN = {
    'check_stage_on_several_links': [
        ('initial_phase_integral', 'node 2', 'theta0=2.0 is an integer'),
        ('latency_nonpositive', 'link (1,2)', 'latency=-1.0'),
        ('beta0_exceeds_capacity', 'link (1,2)', 'beta0=50 > capacity=49'),
        ('gearbox_nonpositive', 'link (1,3)', 'gearbox=-1/2'),
        ('epoch_too_late', 'link (1,3)', 'epoch=-25.0 must be <= -50.0'),
        ('beta0_exceeds_capacity', 'link (2,1)', 'beta0=50 > capacity=49'),
        ('value_out_of_range', 'link (2,3) beta0', 'magnitude above 2**53: not exact as a float'),
        ('beta0_exceeds_capacity', 'link (2,3)', 'beta0=9007199254740993 > capacity=49'),
        ('gearbox_phase_boundary', 'link (2,3)', 'gearbox 3 puts node 2 scaled phase 6.0 on a frame boundary'),
        ('gearbox_nonpositive', 'link (3,1)', 'gearbox=-1/2'),
        ('epoch_too_late', 'link (3,1)', 'epoch=-25.0 must be <= -50.0'),
        ('beta0_negative', 'link (3,2)', 'beta0=-3'),
    ],
    'node_rules_on_several_nodes': [
        ('initial_phase_nonpositive', 'node 1', 'theta0=-0.5'),
        ('initial_frequency_not_above_min', 'node 1', 'omega_init1=0.05 must exceed omega_min=0.1'),
        ('value_out_of_range', 'node 2', 'history-start phase theta0 + omega_init2 * epoch = -inf'),
        ('initial_phase_integral', 'node 2', 'theta0=2.0 is an integer'),
        ('uncorrected_frequency_nonpositive', 'node 2', 'omega_u=-1.0'),
        ('initial_phase_near_integral', 'node 3', 'theta0=1.0000000001 is within 1e-06 of an integer'),
        ('initial_frequency_not_above_min', 'node 3', 'omega_init2=0.1 must exceed omega_min=0.1'),
    ],
    'node_rules_at_the_bounds': [
        ('uncorrected_frequency_nonpositive', 'node 1', 'omega_u=0.0'),
        ('initial_phase_near_integral', 'node 2', 'theta0=2.9999999999 is within 1e-06 of an integer'),
        ('initial_frequency_not_above_min', 'node 2', 'omega_init1=0.1 must exceed omega_min=0.1'),
    ],
    'beta0_negative_and_inexact': [
        ('beta0_negative', 'link (1,3)', 'beta0=-9007199254740993'),
        ('value_out_of_range', 'link (1,3) beta0', 'magnitude above 2**53: not exact as a float'),
    ],
    'check_stage_overflow': [
        ('value_out_of_range', 'node 3', 'history-start phase theta0 + omega_init2 * epoch = -inf'),
        ('epoch_too_late', 'link (1,2)', 'epoch=-1e+308 must be <= -inf'),
        ('epoch_too_late', 'link (1,3)', 'epoch=-1e+308 must be <= -inf'),
        ('epoch_too_late', 'link (2,1)', 'epoch=-1e+308 must be <= -inf'),
        ('epoch_too_late', 'link (2,3)', 'epoch=-1e+308 must be <= -inf'),
        ('epoch_too_late', 'link (3,1)', 'epoch=-1e+308 must be <= -inf'),
        ('epoch_too_late', 'link (3,2)', 'epoch=-1e+308 must be <= -inf'),
    ],
    'check_stage_unknown_node': [
        ('link_unknown_node', 'link (1,3)', 'node ids must be in 1..2'),
        ('link_unknown_node', 'link (2,3)', 'node ids must be in 1..2'),
        ('link_unknown_node', 'link (3,1)', 'node ids must be in 1..2'),
        ('link_unknown_node', 'link (3,2)', 'node ids must be in 1..2'),
    ],
    'duplicate_edge': [
        ('unknown_field', 'topology.edges[3].zz', 'not part of the schema'),
        ('duplicate_edge', 'topology.edges[3]', 'edge (1,2) already defined'),
    ],
    'edge_endpoints_wrong': [
        ('missing_field', 'topology.edges[0].a', 'required: an integer'),
        ('wrong_type', 'topology.edges[1].a', "expected an integer, got '1'"),
        ('wrong_type', 'topology.edges[1].b', 'expected an integer, got 3.0'),
        ('wrong_type', 'topology.edges[2]', 'expected an edge object'),
    ],
    'gearbox_and_beta0_wrong_in_one_edge': [
        ('wrong_type', 'topology.edges[1].gearbox_ab', _GEARBOX + "'1/2/3'"),
        ('wrong_type', 'topology.edges[1].beta0', "expected an integer, got 'b'"),
        ('wrong_type', 'topology.edges[1].beta0_ba', 'expected an integer, got 2.5'),
        ('beta0_missing', 'topology.edges[1]', 'no initial occupancy given and no params.beta0 default'),
    ],
    'gearbox_bool_numerator': [
        ('wrong_type', 'topology.edges[0].gearbox_ba', _GEARBOX + '[True, 1]'),
    ],
    'gearbox_float_numerator': [
        ('wrong_type', 'topology.edges[0].gearbox_ab', _GEARBOX + '[2.0, 1]'),
    ],
    'gearbox_int': [
        ('gearbox_phase_boundary', 'link (1,2)', 'gearbox 2 puts node 1 scaled phase 1.0 on a frame boundary'),
        ('gearbox_phase_boundary', 'link (2,1)', 'gearbox 2 puts node 1 scaled phase 1.0 on a frame boundary'),
    ],
    'gearbox_list': [
        ('gearbox_phase_boundary', 'link (1,2)', 'gearbox 2 puts node 1 scaled phase 1.0 on a frame boundary'),
    ],
    'gearbox_spaced_string': [
        ('gearbox_phase_boundary', 'link (2,3)', 'gearbox 3/2 puts node 3 scaled phase 1.0 on a frame boundary'),
        ('gearbox_phase_boundary', 'link (3,2)', 'gearbox 3/2 puts node 3 scaled phase 1.0 on a frame boundary'),
    ],
    'gearbox_string': [
        ('gearbox_phase_boundary', 'link (2,1)', 'gearbox 2 puts node 2 scaled phase 1.0 on a frame boundary'),
    ],
    'gearbox_zero_denominator': [
        ('wrong_type', 'topology.edges[0].gearbox', _GEARBOX + "'3/0'"),
    ],
    'latency_null_ab': [
        ('missing_field', 'topology.edges[0].latency', 'each direction needs a latency'),
    ],
    'latency_null_ba': [
        ('missing_field', 'topology.edges[2].latency', 'each direction needs a latency'),
    ],
    'latency_null_shared': [
        ('missing_field', 'topology.edges[0].latency', 'each direction needs a latency'),
    ],
    'latency_wrong_in_all_three': [
        ('wrong_type', 'topology.edges[0].latency', "expected a number, got 'x'"),
        ('wrong_type', 'topology.edges[0].latency_ab', 'expected a number, got nan'),
        ('missing_field', 'topology.edges[0].latency', 'each direction needs a latency'),
    ],
    'latency_wrong_type_ab': [
        ('wrong_type', 'topology.edges[0].latency_ab', 'expected a number, got [1.0]'),
    ],
    'latency_wrong_type_ba': [
        ('wrong_type', 'topology.edges[2].latency_ba', 'expected a number, got True'),
    ],
    'latency_wrong_type_shared': [
        ('wrong_type', 'topology.edges[0].latency', "expected a number, got '1.0'"),
        ('missing_field', 'topology.edges[0].latency', 'each direction needs a latency'),
    ],
    'missing_latency_hides_bad_gearbox': [
        ('missing_field', 'topology.edges[0].latency', 'each direction needs a latency'),
    ],
    'n_nodes_bool': [
        ('wrong_type', 'topology.n_nodes', 'expected an integer, got True'),
        ('wrong_type', 'params.theta0', 'expected a number or a list of 0 numbers, got [0.1, 0.1, 0.1]'),
        ('wrong_type', 'params.omega_u', 'expected a number or a list of 0 numbers, got [1.1, 1.4, 2.0]'),
        ('wrong_type', 'params.omega_init1', 'expected a number or a list of 0 numbers, got [1.1, 1.4, 2.0]'),
        ('wrong_type', 'params.omega_init2', 'expected a number or a list of 0 numbers, got [1.1, 1.4, 2.0]'),
    ],
    'n_nodes_huge': [
        ('value_out_of_range', 'topology.n_nodes', 'magnitude above 2**53'),
    ],
    'per_edge_beta0_with_default': [
        ('beta0_exceeds_capacity', 'link (1,3)', 'beta0=45 > capacity=40'),
        ('beta0_negative', 'link (2,3)', 'beta0=-1'),
    ],
    'per_edge_beta0_without_default': [
        ('beta0_missing', 'topology.edges[0]', 'no initial occupancy given and no params.beta0 default'),
        ('beta0_missing', 'topology.edges[1]', 'no initial occupancy given and no params.beta0 default'),
        ('beta0_missing', 'topology.edges[2]', 'no initial occupancy given and no params.beta0 default'),
    ],
    'per_node_bad_first': [
        ('wrong_type', 'params.theta0', "expected a number or a list of 3 numbers, got ['0.1', 0.1, 0.1]"),
    ],
    'per_node_bad_last': [
        ('wrong_type', 'params.omega_init1', 'expected a number or a list of 3 numbers, got [1.1, 1.4, nan]'),
        ('wrong_type', 'params.omega_init2', f"expected a number or a list of 3 numbers, got [1.1, 1.4, {BIG}]"),
    ],
    'per_node_bad_middle': [
        ('wrong_type', 'params.omega_u', 'expected a number or a list of 3 numbers, got [1.1, None, 2.0]'),
    ],
    'per_node_wrong_length_and_type': [
        ('wrong_type', 'params.theta0', 'expected a number or a list of 3 numbers, got [0.1, 0.1]'),
        ('wrong_type', 'params.omega_u', "expected a number or a list of 3 numbers, got {'1': 1.1}"),
    ],
    'reversed_duplicate_edge': [
        ('duplicate_edge', 'topology.edges[3]', 'edge (3,1) already defined'),
        ('duplicate_edge', 'topology.edges[4]', 'edge (3,2) already defined'),
    ],
    'sections_controller_and_run': [
        ('wrong_type', 'topology.edges', 'expected a list of edge objects'),
        ('controller_kind', 'controller.kind', "expected 'zero' or 'proportional', got 'pid'"),
        ('wrong_type', 'run.output_grid', "expected a number, got 'fine'"),
        ('wrong_type', 'run.seed', 'expected an integer, got 1.5'),
        ('run_t_max_nonpositive', 'run.t_max', 't_max=-1.0'),
    ],
    'self_edge': [
        ('link_unknown_node', 'link (1,4)', 'node ids must be in 1..3'),
        ('self_link', 'link (2,2)', 'links must join distinct nodes'),
        ('link_unknown_node', 'link (4,1)', 'node ids must be in 1..3'),
    ],
    'unknown_key_and_bad_endpoints': [
        ('unknown_field', 'topology.edges[0].q', 'not part of the schema'),
        ('unknown_field', 'topology.edges[0].r', 'not part of the schema'),
        ('wrong_type', 'topology.edges[0].a', "expected an integer, got 'x'"),
        ('missing_field', 'topology.edges[0].b', 'required: an integer'),
    ],
    'unknown_key_first': [
        ('unknown_field', 'topology.edges[0].colour', 'not part of the schema'),
    ],
    'unknown_key_last': [
        ('unknown_field', 'extra', 'not part of the schema'),
        ('unknown_field', 'params.q', 'not part of the schema'),
        ('unknown_field', 'topology.edges[1].weight', 'not part of the schema'),
        ('unknown_field', 'topology.edges[1].z', 'not part of the schema'),
    ],
    'wrong_shared_fields_fall_back': [
        ('wrong_type', 'topology.edges[0].gearbox', _GEARBOX + '[1, 0]'),
        ('wrong_type', 'topology.edges[0].beta0', "expected an integer, got 'b'"),
    ],
    'zero_and_negative_zero_latency': [
        ('latency_nonpositive', 'link (1,2)', 'latency=0.0'),
        ('latency_nonpositive', 'link (1,3)', 'latency=-0.0'),
        ('latency_nonpositive', 'link (2,1)', 'latency=0.0'),
        ('latency_nonpositive', 'link (2,3)', 'latency=-0.0'),
        ('latency_nonpositive', 'link (3,1)', 'latency=0.0'),
        ('latency_nonpositive', 'link (3,2)', 'latency=-0.0'),
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_violations(case):
    assert _report(bundled_with(*CASES[case])) == GOLDEN[case]
