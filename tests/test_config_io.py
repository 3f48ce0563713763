"""Config schema, trace serialization, summaries, and plot emission."""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afmsim.config import (
    ConfigError,
    ScenarioConfig,
    load_config,
    load_config_file,
    run_config,
)
from afmsim.scenarios import gearbox_pair, triangle3
from afmsim.topology import ValidationError
from afmsim.traceio import (
    emit_plot_script,
    fmt_num,
    format_summary,
    read_trace,
    summarize,
    write_trace,
)

from conftest import (
    HUGE_LITERAL_CONFIG,
    OVERSIZE_CONFIGS,
    bundled_with,
    needs_digit_limit,
    set_field,
    two_node_scenario,
)

REPO = Path(__file__).resolve().parent.parent
BUNDLED = REPO / "scenarios" / "triangle3.json"


MINIMAL = """
{
  "topology": {
    "n_nodes": 2,
    "edges": [{"a": 1, "b": 2, "latency": 1.0}]
  },
  "params": {
    "p": 10, "d": 2, "omega_min": 0.1, "epoch": -25.0,
    "theta0": 0.5, "omega_u": 1.0, "beta0": 7
  },
  "controller": {"kind": "zero"}
}
"""


def test_bundled_scenario_loads_and_matches_builder():
    cfg = load_config_file(BUNDLED)
    built = triangle3()
    assert cfg.to_dict() == built.to_dict()
    assert cfg.fingerprint() == built.fingerprint()
    assert len(cfg.fingerprint()) == 64


def test_bundled_scenario_is_the_builders_canonical_text():
    assert BUNDLED.read_bytes() == triangle3().to_json().encode("utf-8")


@pytest.mark.parametrize(
    "build, subject",
    [
        (lambda: triangle3(k_p=float("nan")), "controller.k_p"),
        (lambda: triangle3(t_max=float("inf")), "run.t_max"),
        (lambda: gearbox_pair(t_max=float("nan")), "run.t_max"),
    ],
    ids=["triangle3_k_p_nan", "triangle3_t_max_inf", "gearbox_pair_t_max_nan"],
)
def test_builder_argument_the_schema_rejects_raises(build, subject):
    with pytest.raises(ValidationError) as err:
        build()
    assert [(v.name, v.subject) for v in err.value.violations] == [("wrong_type", subject)]


def test_scalar_shorthands_broadcast():
    cfg = load_config(MINIMAL)
    par = cfg.scenario.params
    assert par.theta0 == (0.5, 0.5)
    assert par.omega_u == (1.0, 1.0)
    assert par.omega_init1 == (1.0, 1.0)
    assert par.omega_init2 == (1.0, 1.0)
    assert par.beta0 == {(1, 2): 7, (2, 1): 7}
    assert cfg.run.t_max == 100.0  # defaults applied


def test_round_trip_identity():
    cfg = load_config(MINIMAL)
    again = load_config(cfg.to_json())
    assert again.to_dict() == cfg.to_dict()
    assert again.fingerprint() == cfg.fingerprint()


def test_equivalent_shorthand_same_fingerprint():
    explicit = MINIMAL.replace('"theta0": 0.5', '"theta0": [0.5, 0.5]')
    assert load_config(explicit).fingerprint() == load_config(MINIMAL).fingerprint()


GEARED = {
    "topology": {
        "n_nodes": 3,
        "edges": [
            {"a": 1, "b": 2, "latency": 1.5, "gearbox": "3/2"},
            {
                "a": 1, "b": 3, "latency_ab": 0.75, "latency_ba": 2.0,
                "gearbox_ab": [1, 2], "gearbox_ba": 2,
            },
            {"a": 2, "b": 3, "latency": 1.0, "beta0_ab": 40},
        ],
    },
    "params": {
        "p": 10, "d": 2, "omega_min": 0.1, "epoch": -40.0,
        "theta0": [0.15, 0.2, 0.35], "omega_u": [1.1, 1.4, 2.0], "beta0": 50,
    },
    "controller": {"kind": "proportional", "k_p": 0.01},
}


@pytest.mark.parametrize(
    "text, fingerprint",
    [
        (BUNDLED.read_text(), "a067f922f6549ab0e1a0ab057377d0c709707cb58e4591017715c4c32102f69c"),
        (json.dumps(GEARED), "ab18859c9d100ee4494972d7439f0363da894aef2653b50037d1339785c2eb87"),
    ],
    ids=["triangle3", "geared"],
)
def test_fingerprints_pinned(text, fingerprint):
    assert load_config(text).fingerprint() == fingerprint


def test_equal_links_share_one_link():
    n = 256
    doc = {
        "topology": {
            "n_nodes": n,
            "edges": [{"a": i, "b": i % n + 1, "latency": 1.0} for i in range(1, n + 1)],
        },
        "params": {
            "p": 10, "d": 2, "omega_min": 0.1, "epoch": -25.0,
            "theta0": 0.3, "omega_u": 1.0, "beta0": 7,
        },
        "controller": {"kind": "zero"},
    }
    links = load_config(json.dumps(doc)).scenario.topology.links
    assert len(links) == 2 * n
    assert len({id(lk) for lk in links.values()}) == 1


def test_geared_links_share_by_value():
    links = load_config(json.dumps(GEARED)).scenario.topology.links
    # 3/2 both ways on 1--2; unit gearboxes on 2--3, however spelled
    assert links[(1, 2)] is links[(2, 1)]
    assert links[(2, 3)] is links[(3, 2)]
    assert links[(1, 3)] is not links[(3, 1)]
    assert links[(1, 3)].gearbox == Fraction(1, 2) and links[(3, 1)].gearbox == 2


def test_gearboxes_come_in_one_form():
    # Every unit gearbox, however spelled or left out, is the int 1, and any
    # other a reduced Fraction: the one form the floors and the replay read.
    for form in ("1", "[1, 1]", "[3, 3]", '"2/2"', "null"):
        text = MINIMAL.replace('"latency": 1.0}', '"latency": 1.0, "gearbox": %s}' % form)
        links = load_config(text).scenario.topology.links
        assert [(type(lk.gearbox), lk.gearbox) for lk in links.values()] == [(int, 1)] * 2
    text = MINIMAL.replace('"latency": 1.0}', '"latency": 1.0, "gearbox_ab": [4, 2]}')
    links = load_config(text.replace('"theta0": 0.5', '"theta0": 0.3')).scenario.topology.links
    g = links[(1, 2)].gearbox
    assert type(g) is Fraction and (g.numerator, g.denominator) == (2, 1)
    assert type(links[(2, 1)].gearbox) is int
    for lk in load_config(json.dumps(GEARED)).scenario.topology.links.values():
        assert type(lk.gearbox) is (int if lk.gearbox == 1 else Fraction)


def test_run_config_builds_the_canonical_form_once(monkeypatch):
    cfg = triangle3()
    calls = []
    to_dict = ScenarioConfig.to_dict
    monkeypatch.setattr(ScenarioConfig, "to_dict", lambda self: calls.append(1) or to_dict(self))
    trace = run_config(cfg, t_max=2.0)
    assert len(calls) == 1
    assert trace.fingerprint == cfg.fingerprint()
    assert trace.meta["config"] == cfg.to_dict()


def test_parse_error_reports_position():
    with pytest.raises(ConfigError) as err:
        load_config('{\n  "topology": }')
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("text", ["[]", "3", '"config"', "null"])
def test_top_level_not_an_object_is_a_config_error(text):
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        load_config(text)


def test_missing_section_reported_with_path():
    with pytest.raises(ValidationError) as err:
        load_config('{"topology": {"n_nodes": 2, "edges": []}, "controller": {"kind": "zero"}}')
    assert any(v.name == "missing_field" and v.subject == "params" for v in err.value.violations)


def test_unknown_field_flagged():
    bad = MINIMAL.replace('"p": 10,', '"p": 10, "q": 3,')
    with pytest.raises(ValidationError) as err:
        load_config(bad)
    assert any(v.name == "unknown_field" and v.subject == "params.q" for v in err.value.violations)


def test_constraint_violations_surface_through_load():
    bad = MINIMAL.replace('"epoch": -25.0', '"epoch": -1.0')
    with pytest.raises(ValidationError) as err:
        load_config(bad)
    assert any(v.name == "epoch_too_late" for v in err.value.violations)


def test_constraint_checks_wait_for_a_clean_schema():
    # Loading runs in two stages. The schema reader reports every violation
    # it finds with a field path; the constraint checks run only once it finds
    # none, and name subjects such as a link.
    late = (("params", "epoch"), -1.0)
    with pytest.raises(ValidationError) as err:
        load_config(bundled_with(late, (("params", "omega_u"), [1.1, 1.4, "x"])))
    assert [(v.name, v.subject) for v in err.value.violations] == [
        ("wrong_type", "params.omega_u")
    ]
    with pytest.raises(ValidationError) as err:
        load_config(bundled_with(late))
    links = sorted(triangle3().scenario.topology.links)
    assert [(v.name, v.subject) for v in err.value.violations] == [
        ("epoch_too_late", f"link ({a},{b})") for a, b in links
    ]


def test_wrong_types_flagged():
    bad = MINIMAL.replace('"p": 10', '"p": 10.5')
    with pytest.raises(ValidationError) as err:
        load_config(bad)
    assert any(v.name == "wrong_type" and v.subject == "params.p" for v in err.value.violations)


def test_non_finite_json_numbers_rejected():
    bad = MINIMAL.replace('"omega_min": 0.1', '"omega_min": NaN')
    with pytest.raises(ValidationError) as err:
        load_config(bad)
    assert any(v.subject == "params.omega_min" for v in err.value.violations)


def test_controller_kind_checked():
    bad = MINIMAL.replace('"kind": "zero"', '"kind": "pid"')
    with pytest.raises(ValidationError) as err:
        load_config(bad)
    assert any(v.name == "controller_kind" for v in err.value.violations)


def test_gearbox_forms_accepted():
    for form in ('2', '[2, 1]', '"2/1"'):
        text = MINIMAL.replace(
            '{"a": 1, "b": 2, "latency": 1.0}',
            '{"a": 1, "b": 2, "latency": 1.0, "gearbox_ab": %s}' % form,
        ).replace('"theta0": 0.5', '"theta0": 0.3')
        cfg = load_config(text)
        assert cfg.scenario.topology.links[(1, 2)].gearbox == 2
        assert cfg.scenario.topology.links[(2, 1)].gearbox == 1


@pytest.mark.parametrize("form", ["--3/2", "\u00b2/1", "3/\u00b2"])
def test_malformed_gearbox_string_rejected(form):
    # each passes a sign strip and str.isdigit but not int()
    text = MINIMAL.replace(
        '{"a": 1, "b": 2, "latency": 1.0}',
        '{"a": 1, "b": 2, "latency": 1.0, "gearbox": "%s"}' % form,
    )
    with pytest.raises(ValidationError) as err:
        load_config(text)
    assert any(
        v.name == "wrong_type" and v.subject == "topology.edges[0].gearbox"
        for v in err.value.violations
    )


@pytest.mark.parametrize("fields", ['"gearbox": 0', '"gearbox_ab": [0, 3]'])
def test_zero_gearbox_rejected(fields):
    text = MINIMAL.replace(
        '{"a": 1, "b": 2, "latency": 1.0}',
        '{"a": 1, "b": 2, "latency": 1.0, %s}' % fields,
    )
    with pytest.raises(ValidationError) as err:
        load_config(text)
    assert any(
        v.name == "gearbox_nonpositive" and v.subject == "link (1,2)" for v in err.value.violations
    )


def test_per_edge_beta0_without_params_default():
    text = MINIMAL.replace(
        '{"a": 1, "b": 2, "latency": 1.0}',
        '{"a": 1, "b": 2, "latency": 1.0, "beta0_ab": 4, "beta0_ba": 9}',
    ).replace('"theta0": 0.5, "omega_u": 1.0, "beta0": 7', '"theta0": 0.5, "omega_u": 1.0')
    cfg = load_config(text)
    assert cfg.scenario.params.beta0 == {(1, 2): 4, (2, 1): 9}


def test_edge_without_any_beta0_rejected():
    text = MINIMAL.replace('"theta0": 0.5, "omega_u": 1.0, "beta0": 7',
                           '"theta0": 0.5, "omega_u": 1.0')
    with pytest.raises(ValidationError) as err:
        load_config(text)
    assert any(v.name == "beta0_missing" for v in err.value.violations)


def test_duplicate_edge_rejected():
    bad = MINIMAL.replace(
        '[{"a": 1, "b": 2, "latency": 1.0}]',
        '[{"a": 1, "b": 2, "latency": 1.0}, {"a": 2, "b": 1, "latency": 2.0}]',
    )
    with pytest.raises(ValidationError) as err:
        load_config(bad)
    assert any(v.name == "duplicate_edge" for v in err.value.violations)


# -- explicit null: the same as an absent key -----------------------------------------

_EDGE0 = ("topology", "edges", 0)


def _minimal_with(*edits):
    """MINIMAL with an empty run section and each (path, value) edit made."""
    doc = json.loads(MINIMAL)
    doc["run"] = {}
    for path, value in edits:
        set_field(doc, path, value)
    return doc


def _violations(doc):
    with pytest.raises(ValidationError) as err:
        load_config(json.dumps(doc))
    return [(v.name, v.subject) for v in err.value.violations]


# Each optional field, with the edits that make the document valid without it.
OPTIONAL_FIELDS = [
    (("params", "omega_init1"), []),
    (("params", "omega_init2"), []),
    (("params", "beta0"), [((*_EDGE0, "beta0"), 7)]),
    (("controller", "beta_ref"), []),
    (("controller", "k_p"), []),  # kind zero
    (("run", "t_max"), []),
    (("run", "output_grid"), []),
    (("run", "seed"), []),
    (("topology", "buffer_capacity"), []),
    (("controller", "clamp"), []),
    # the shared edge fields when both per-direction forms are given
    ((*_EDGE0, "latency"), [((*_EDGE0, "latency_ab"), 1.0), ((*_EDGE0, "latency_ba"), 2.0)]),
    ((*_EDGE0, "gearbox"), [((*_EDGE0, "gearbox_ab"), [3, 2]), ((*_EDGE0, "gearbox_ba"), 3)]),
    ((*_EDGE0, "beta0"), [((*_EDGE0, "beta0_ab"), 4), ((*_EDGE0, "beta0_ba"), 9)]),
    # a per-direction form falls back to the shared field
    ((*_EDGE0, "latency_ab"), []),
    ((*_EDGE0, "gearbox_ba"), []),
    ((*_EDGE0, "beta0_ab"), []),
]


@pytest.mark.parametrize(
    "path, edits", OPTIONAL_FIELDS, ids=[".".join(map(str, path)) for path, _ in OPTIONAL_FIELDS]
)
def test_explicit_null_loads_as_an_absent_key(path, edits):
    doc = _minimal_with(*edits)
    *parents, key = path
    section = doc
    for step in parents:
        section = section[step]
    section.pop(key, None)
    absent = load_config(json.dumps(doc))
    section[key] = None
    assert load_config(json.dumps(doc)).fingerprint() == absent.fingerprint()


@pytest.mark.parametrize(
    "path, subject, edits",
    [
        (("topology", "n_nodes"), "topology.n_nodes", []),
        (("params", "p"), "params.p", []),
        (("params", "theta0"), "params.theta0", []),
        ((*_EDGE0, "a"), "topology.edges[0].a", []),
        ((*_EDGE0, "latency"), "topology.edges[0].latency", []),
        (("controller", "k_p"), "controller.k_p", [(("controller", "kind"), "proportional")]),
    ],
)
def test_required_field_given_null_is_missing(path, subject, edits):
    violations = _violations(_minimal_with(*edits, (path, None)))
    assert ("missing_field", subject) in violations
    assert ("wrong_type", subject) not in violations


@pytest.mark.parametrize(
    "key, name",
    [("t_max", "run_t_max_nonpositive"), ("output_grid", "run_grid_nonpositive")],
)
@pytest.mark.parametrize("value", [0, -1.5])
def test_nonpositive_run_setting_is_its_only_violation(key, name, value):
    assert _violations(_minimal_with((("run", key), value))) == [(name, f"run.{key}")]


@pytest.mark.parametrize(
    "run",
    [{"output_grid": 1e-300}, {"t_max": 1e308}, {"t_max": 5e7, "output_grid": 0.5}],
    ids=["tiny_grid", "huge_t_max", "at_the_bound"],
)
def test_a_grid_no_machine_holds_is_a_named_violation(run):
    # t_max / output_grid is bounded as a count of grid points; a quotient past
    # binary64 is inf and fails the same bound.
    edits = [(("run", key), value) for key, value in run.items()]
    assert _violations(_minimal_with(*edits)) == [("value_out_of_range", "run.output_grid")]


def test_the_grid_bound_needs_both_run_settings_positive():
    edits = [(("run", "t_max"), -1.0), (("run", "output_grid"), 1e-300)]
    assert _violations(_minimal_with(*edits)) == [("run_t_max_nonpositive", "run.t_max")]


def test_invalid_omega_u_is_the_only_frequency_violation():
    violations = _violations(_minimal_with((("params", "omega_u"), "fast")))
    assert ("wrong_type", "params.omega_u") in violations
    assert not [v for v in violations if v[1].startswith("params.omega_init")]


@pytest.mark.parametrize("case", sorted(OVERSIZE_CONFIGS))
def test_oversize_values_are_named_violations(case):
    text, name, subject = OVERSIZE_CONFIGS[case]
    with pytest.raises(ValidationError) as err:
        load_config(text)
    assert (name, subject) in [(v.name, v.subject) for v in err.value.violations]


@needs_digit_limit
def test_integer_literal_beyond_conversion_limit_is_a_config_error():
    with pytest.raises(ConfigError):
        load_config(HUGE_LITERAL_CONFIG)


# -- hostile documents: every key of the schema, hostile leaves ---------------------

_LEAF = st.one_of(
    st.integers(-3, 60),
    st.integers(-(10**400), 10**400),
    st.sampled_from([2**53, 2**53 + 1, 1e308, -1e308, 5e-324]),
    st.floats(-30.0, 30.0),
    st.floats(),  # NaN and infinities become NaN/Infinity literals
    st.booleans(),
    st.none(),
    st.sampled_from(["--3/2", "3/2", " 7 / 5 ", "1/0", "\u00b2/1", "2", "", "zero"]),
)
_VALUE = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "p", "k_p"]), inner, max_size=2),
    max_leaves=8,
)


_EDGE_KEYS = (
    "a", "b", "latency", "latency_ab", "latency_ba", "gearbox", "gearbox_ab", "gearbox_ba",
    "beta0", "beta0_ab", "beta0_ba",
)
# Every field of the schema, and the sections and edge list as wholes.
_PATHS = (
    [("topology",), ("params",), ("controller",), ("run",), ("extra",)]
    + [("topology", key) for key in ("buffer_capacity", "edges")]
    + [("topology", "edges", i) for i in (0, 1)]
    + [("topology", "edges", i, key) for i in (0, 1) for key in _EDGE_KEYS]
    + [
        ("params", key)
        for key in (
            "p", "d", "omega_min", "epoch", "theta0", "omega_u", "omega_init1",
            "omega_init2", "beta0",
        )
    ]
    + [("controller", key) for key in ("kind", "k_p", "beta_ref", "clamp")]
    + [("run", key) for key in ("t_max", "output_grid", "seed")]
)


def _valid_document(n_nodes):
    """A 3-node document, valid when ``n_nodes`` is 3."""
    return {
        "topology": {
            "n_nodes": n_nodes,
            "edges": [{"a": 1, "b": 2, "latency": 1.0}, {"a": 2, "b": 3, "latency": 2.0}],
        },
        "params": {
            "p": 10, "d": 2, "omega_min": 0.1, "epoch": -25.0,
            "theta0": 0.3, "omega_u": 1.0, "beta0": 7,
        },
        "controller": {"kind": "proportional", "k_p": 0.01},
        "run": {"t_max": 10.0},
    }


def _no_node_document(path, value):
    """``n_nodes`` 0 with one per-node field replaced."""
    doc = _valid_document(0)
    set_field(doc, path, value)
    return json.dumps(doc)


# A per-node value that is neither a number nor a list is wrong for any n_nodes,
# even 0, where an empty collection would have the right length.
NO_NODE_WRONG_TYPES = {
    "theta0_dict": (_no_node_document(("params", "theta0"), {"a": 1}), "params.theta0"),
    "omega_u_string": (_no_node_document(("params", "omega_u"), "fast"), "params.omega_u"),
}


@pytest.mark.parametrize("case", sorted(NO_NODE_WRONG_TYPES))
def test_per_node_value_of_wrong_type_with_no_nodes(case):
    text, subject = NO_NODE_WRONG_TYPES[case]
    assert ("wrong_type", subject) in _violations(json.loads(text))


@st.composite
def _hostile_documents(draw):
    """A valid document with up to three fields replaced by hostile values."""
    # Per-node shorthands allocate n_nodes entries, so keep it small, or at the
    # node bound and beyond, where loading rejects it before allocating.
    doc = _valid_document(
        draw(
            st.just(3)
            | st.sampled_from(
                [0, 1, 2, 4, 5, 6, None, True, 2.5, "3", 10**7, 10**8, 2**53 + 1, -(10**400)]
            )
        )
    )
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=3)):
        try:
            set_field(doc, path, draw(_VALUE))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced a container on this path
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=_hostile_documents())
@example(text=HUGE_LITERAL_CONFIG)
@example(text=NO_NODE_WRONG_TYPES["theta0_dict"][0])
@example(text=NO_NODE_WRONG_TYPES["omega_u_string"][0])
def test_hostile_documents_load_or_raise_input_errors(text):
    try:
        cfg = load_config(text)
    except (ConfigError, ValidationError):
        return
    assert isinstance(cfg, ScenarioConfig)
    assert load_config(cfg.to_json()).fingerprint() == cfg.fingerprint()


# -- trace writing ------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    cfg = triangle3()
    trace = run_config(cfg, t_max=10.0)
    out = tmp_path_factory.mktemp("trace")
    paths = write_trace(trace, out)
    return cfg, trace, out, paths


def test_write_trace_files_and_headers(small_trace):
    _, _, out, paths = small_trace
    assert set(paths) == {"nodes.csv", "buffers.csv", "events.csv", "meta.json"}
    assert (out / "nodes.csv").read_text().splitlines()[0] == "t,node,theta,omega"
    assert (out / "buffers.csv").read_text().splitlines()[0] == "t,src,dst,beta,gamma"
    assert (out / "events.csv").read_text().splitlines()[0] == "t,kind,link,value"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["fingerprint"] == triangle3().fingerprint()
    assert meta["fatal"] is False
    assert meta["config"]["params"]["p"] == 10


def test_row_ordering_and_formatting(small_trace):
    _, _, out, _ = small_trace
    rows = [line.split(",") for line in (out / "buffers.csv").read_text().splitlines()[1:]]
    keys = [(float(r[0]), int(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)
    # occupancies are bare integers
    assert all("." not in r[3] and "." not in r[4] for r in rows)
    # first row: t=0, link 1->2, beta 50
    assert rows[0][:4] == ["0", "1", "2", "50"]


def test_read_trace_round_trip(small_trace):
    _, trace, out, _ = small_trace
    back = read_trace(out)
    assert back.grid == [float(fmt_num(t)) for t in trace.grid]
    assert back.beta == trace.beta
    assert back.gamma == trace.gamma
    assert back.fingerprint == trace.fingerprint
    assert back.fatal_events == trace.fatal_events
    for i in (1, 2, 3):
        assert back.omega[i] == [float(fmt_num(x)) for x in trace.omega[i]]


def test_write_trace_deterministic(small_trace, tmp_path):
    cfg, _, out, _ = small_trace
    trace2 = run_config(cfg, t_max=10.0)
    write_trace(trace2, tmp_path)
    for name in ("nodes.csv", "buffers.csv", "events.csv", "meta.json"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_fatal_events_serialized(tmp_path, zero_spec):
    sc = two_node_scenario(omega_u=(1.0, 2.0), beta0=3, capacity=5)
    from afmsim.engine import simulate

    trace = simulate(sc, zero_spec, 30.0)
    write_trace(trace, tmp_path)
    lines = (tmp_path / "events.csv").read_text().splitlines()[1:]
    assert lines
    kinds = {line.split(",")[1] for line in lines}
    assert kinds <= {"underflow", "overflow"}
    back = read_trace(tmp_path)
    assert back.fatal_events == trace.fatal_events


# -- summaries ---------------------------------------------------------------------

def test_summary_zero_controller_identical_nodes(zero_spec, tmp_path):
    from afmsim.engine import simulate

    trace = simulate(two_node_scenario(), zero_spec, 25.0)
    s = summarize(trace)
    assert s.freq_spread == 0.0
    assert s.pair_max_sum_deviation == {(1, 2): 0}
    assert s.link_stats[(1, 2)].beta_min == s.link_stats[(1, 2)].beta_max == 7
    assert s.first_fatal is None
    text = format_summary(s)
    assert "no fatal events" in text


def test_summary_reference_run(small_trace):
    _, trace, _, _ = small_trace
    s = summarize(trace)
    assert s.t_final == 10.0
    assert set(s.freq_final) == {1, 2, 3}
    assert s.freq_spread >= 0.0
    assert set(s.pair_max_sum_deviation) == {(1, 2), (1, 3), (2, 3)}


def test_summary_of_an_empty_grid_is_refused(small_trace):
    _, trace, _, _ = small_trace
    with pytest.raises(ValueError, match="no resampled series"):
        summarize(dataclasses.replace(trace, grid=[]))


def test_summary_from_read_trace_matches(small_trace):
    _, trace, out, _ = small_trace
    a = summarize(trace)
    b = summarize(read_trace(out))
    assert a.pair_max_sum_deviation == b.pair_max_sum_deviation
    assert a.link_stats == b.link_stats
    assert b.freq_spread == pytest.approx(a.freq_spread, abs=1e-9)


# -- plot script ---------------------------------------------------------------------

def test_emit_plot_script_compiles(small_trace):
    _, trace, out, _ = small_trace
    path = emit_plot_script(trace, out / "plot_trace.py")
    src = path.read_text()
    compile(src, str(path), "exec")
    assert "buffers.csv" in src and "nodes.csv" in src
    assert trace.fingerprint in src


def test_emitted_plot_script_renders_png(small_trace):
    pytest.importorskip("matplotlib")
    _, trace, out, _ = small_trace
    path = emit_plot_script(trace, out / "plot_trace.py")
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "trace_plot.png").exists()
