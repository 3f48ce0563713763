"""End-to-end CLI tests (in-process through cli.main)."""

import hashlib
import json
from pathlib import Path

import pytest

from afmsim.cli import main

from conftest import HUGE_LITERAL_CONFIG, OVERSIZE_CONFIGS, needs_digit_limit

REPO = Path(__file__).resolve().parent.parent
BUNDLED = str(REPO / "scenarios" / "triangle3.json")


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "trace"
    code = main(["run", "--config", BUNDLED, "--t-max", "20", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "nodes.csv").exists()
    assert (out / "buffers.csv").exists()
    assert (out / "events.csv").exists()
    assert (out / "meta.json").exists()
    assert "fingerprint" in captured.out
    assert "no fatal events" in captured.out


def test_verify_agrees_on_bundled_scenario(capsys):
    code = main(["verify", "--config", BUNDLED, "--t-max", "30"])
    captured = capsys.readouterr()
    assert code == 0
    assert "agree exactly" in captured.out


def test_summarize_reads_written_trace(tmp_path, capsys):
    out = tmp_path / "trace"
    main(["run", "--config", BUNDLED, "--t-max", "20", "--out", str(out)])
    capsys.readouterr()
    code = main(["summarize", "--trace", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "frequency spread" in captured.out


def test_plot_emits_script(tmp_path, capsys):
    out = tmp_path / "trace"
    main(["run", "--config", BUNDLED, "--t-max", "20", "--out", str(out)])
    capsys.readouterr()
    code = main(["plot", "--trace", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "plot_trace.py").exists()
    assert "plot_trace.py" in captured.out


def test_invalid_config_exits_two(tmp_path, capsys):
    cfg = json.loads(Path(BUNDLED).read_text())
    cfg["params"]["epoch"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "epoch_too_late" in captured.err


def test_malformed_gearbox_string_exits_two(tmp_path, capsys):
    cfg = json.loads(Path(BUNDLED).read_text())
    cfg["topology"]["edges"][0]["gearbox"] = "--3/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "wrong_type" in captured.err
    assert "topology.edges[0].gearbox" in captured.err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "case", sorted(OVERSIZE_CONFIGS) + [pytest.param("huge_literal", marks=needs_digit_limit)]
)
def test_oversize_input_exits_two(tmp_path, capsys, command, case):
    if case == "huge_literal":
        text, expected = HUGE_LITERAL_CONFIG, "config error"
    else:
        text, name, subject = OVERSIZE_CONFIGS[case]
        expected = f"{name} @ {subject}:"
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    args = ["--config", str(bad), "--t-max", "5"]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    code = main([command, *args])
    assert code == 2
    assert expected in capsys.readouterr().err


def _lines_edited(edit):
    """A damage function that replaces the file's lines, header included, with
    ``edit(lines)``."""
    return lambda text: "".join(edit(text.splitlines(keepends=True)))


@pytest.mark.parametrize("command", ["summarize", "plot"])
@pytest.mark.parametrize(
    "name, damage",
    [
        ("nodes.csv", lambda text: text.rstrip("\n").rsplit(",", 1)[0] + "\n"),
        ("nodes.csv", lambda text: text.splitlines()[0] + "\n"),
        ("meta.json", lambda text: text[: len(text) // 2]),
        ("meta.json", lambda text: json.dumps({**json.loads(text), "fingerprint": 5})),
        # nodes 1 and 2 of the block at t=0.5
        ("nodes.csv", _lines_edited(lambda lines: [*lines[:4], lines[5], lines[4], *lines[6:]])),
        ("buffers.csv", _lines_edited(lambda lines: [*lines[:8], *lines[9:]])),
        # every row of the last block, so only the nodes.csv grid tells
        ("buffers.csv", lambda text: text.replace("\n5,", "\n5.25,")),
        (
            "nodes.csv",
            _lines_edited(lambda lines: [*lines[:2], lines[2][:-1] + ",0\n", *lines[3:]]),
        ),
    ],
    ids=[
        "short_row",
        "header_only",
        "meta_not_json",
        "fingerprint_not_string",
        "rows_swapped_in_block",
        "buffers_row_deleted",
        "buffers_t_off_grid",
        "extra_field",
    ],
)
def test_malformed_trace_exits_two(tmp_path, capsys, command, name, damage):
    out = tmp_path / "trace"
    assert main(["run", "--config", BUNDLED, "--t-max", "5", "--out", str(out)]) == 0
    (out / name).write_text(damage((out / name).read_text()))
    capsys.readouterr()
    code = main([command, "--trace", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"invalid trace: {out / name}: ")
    assert "Traceback" not in err


def test_zero_final_frequency_exits_two(tmp_path, capsys):
    out = tmp_path / "trace"
    assert main(["run", "--config", BUNDLED, "--t-max", "5", "--out", str(out)]) == 0
    header, *rows = (out / "nodes.csv").read_text().splitlines()
    zeroed = [row.rsplit(",", 1)[0] + ",0" for row in rows]
    (out / "nodes.csv").write_text("\n".join([header, *zeroed]) + "\n")
    capsys.readouterr()
    code = main(["summarize", "--trace", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"invalid trace: {out / 'nodes.csv'}: ")
    assert "Traceback" not in err


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err


def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "missing file" in capsys.readouterr().err


def test_inadmissible_controller_exits_two(tmp_path, capsys):
    cfg = json.loads(Path(BUNDLED).read_text())
    cfg["controller"] = {"kind": "zero", "clamp": [-2.0, -2.0]}
    bad = tmp_path / "forced.json"
    bad.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "admissibility" in captured.err


def test_fatal_run_exits_one(tmp_path, capsys):
    cfg = json.loads(Path(BUNDLED).read_text())
    cfg["topology"]["buffer_capacity"] = 55  # the reference run peaks above this
    bad = tmp_path / "tight.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["run", "--config", str(bad), "--t-max", "60", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FATAL" in captured.out
    events = (out / "events.csv").read_text().splitlines()
    assert len(events) > 1


@pytest.mark.parametrize(
    "capacity, beta0, k_p, digest",
    [
        # underflows and overflows, some first seen at sample times off the grid
        (6, 2, 0.01, "3cf5cd6265cad5b33e66740c55f02d8aaa5dd226b96bb0be98974027016e7786"),
        # an underflow and an overflow tied at t=6
        (10, 5, 0.001, "06128a98b8a9316b9af568cf4be9f7787c7e31b555a47cfebd93517e90f0613e"),
    ],
)
def test_fatal_events_digests_pinned(tmp_path, capacity, beta0, k_p, digest):
    cfg = json.loads(Path(BUNDLED).read_text())
    cfg["topology"]["buffer_capacity"] = capacity
    for edge in cfg["topology"]["edges"]:
        edge["beta0_ab"] = edge["beta0_ba"] = beta0
    cfg["controller"]["k_p"] = k_p
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "trace"
    assert main(["run", "--config", str(path), "--t-max", "60", "--out", str(out)]) == 1
    assert hashlib.sha256((out / "events.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
@pytest.mark.parametrize(
    "command, flag",
    [("run", "--t-max"), ("run", "--grid"), ("verify", "--t-max")],
)
def test_bad_horizon_or_grid_exits_two(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = [command, "--config", BUNDLED, flag, value]
    if command == "run":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_run_output_digests_pinned(tmp_path):
    out = tmp_path / "trace"
    assert main(["run", "--config", BUNDLED, "--t-max", "200", "--out", str(out)]) == 0
    expected = {
        "nodes.csv": "49f738210bea4c4e1a6cc8bec94e18aa983253fdf29c04c3980722a6361134ed",
        "buffers.csv": "b0251e27e1ee1eac5419fcd7cb6d74efd2cc527d66b7c5509b902c6957109f8f",
        "events.csv": "23a6c07d0189eec819e5e5d5b09cb38a9390d2db2894e4a5baf939e63b022f81",
        "meta.json": "d625dc7fc8d8a1a77e874d348c243a3753f948775e053bd9c26f71c66415f35c",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_geared_run_output_digests_pinned(tmp_path):
    # triangle3 with gear ratios 3/2, 1/2 and 2/1, so every non-unit floor
    # branch is in the output; capacity 80 makes link 3->1 overflow at t=24
    cfg = json.loads(Path(BUNDLED).read_text())
    cfg["topology"]["buffer_capacity"] = 80
    e12, e13, _ = cfg["topology"]["edges"]
    e12["gearbox_ab"] = e12["gearbox_ba"] = [3, 2]
    e13["gearbox_ab"] = [1, 2]
    e13["gearbox_ba"] = [2, 1]
    path = tmp_path / "geared.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "trace"
    assert main(["run", "--config", str(path), "--t-max", "200", "--out", str(out)]) == 1
    expected = {
        "nodes.csv": "811bfeb12510abb265711e5ba25483a91542c325dce7d5602643df32b3753ce4",
        "buffers.csv": "f0d19b9a0db941c47192aa6f58b9e5d636c2857d3c848c0b8e8f9256212b0c8a",
        "events.csv": "bdd9003063cd6da30ae0c44fba1a7bba511d680e2c492775289254e0328984b4",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("n_nodes", [0, -2])
def test_nonpositive_node_count_exits_two(tmp_path, capsys, n_nodes):
    cfg = {
        "topology": {"n_nodes": n_nodes, "edges": []},
        "params": {
            "p": 10, "d": 2, "omega_min": 0.1, "epoch": -25.0,
            "theta0": 0.5, "omega_u": 1.0, "beta0": 7,
        },
        "controller": {"kind": "zero"},
    }
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "node_count_nonpositive" in captured.err


def test_run_twice_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", "--config", BUNDLED, "--t-max", "20", "--out", str(out1)]) == 0
    assert main(["run", "--config", BUNDLED, "--t-max", "20", "--out", str(out2)]) == 0
    for name in ("nodes.csv", "buffers.csv", "events.csv", "meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
