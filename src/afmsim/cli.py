"""Command-line surface: run, verify, summarize, plot.

Exit codes: 0 success; 1 fatal buffer events or verification mismatch;
2 unusable input (malformed or invalid config, missing files, a file that
cannot be read, decoded or written, an unreadable trace directory,
statically inadmissible controller).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, load_config_file, run_config
from .oracle import verify_scenario
from .topology import ValidationError
from .traceio import (
    TraceError,
    emit_plot_script,
    fmt_num,
    format_summary,
    read_trace,
    summarize,
    write_trace,
)
from .trajectory import AdmissibilityError


def positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afmsim",
        description="Frame-exact simulator for decentralized clock synchronization "
        "over elastic-buffer networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write its trace")
    p_run.add_argument("--config", required=True, help="scenario config (JSON)")
    p_run.add_argument("--t-max", type=positive_finite, default=None, help="override run.t_max")
    p_run.add_argument(
        "--grid", type=positive_finite, default=None, help="override run.output_grid"
    )
    p_run.add_argument("--out", required=True, help="output directory for the trace")

    p_verify = sub.add_parser(
        "verify", help="cross-check closed-form occupancies against the frame-level replay"
    )
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--t-max", type=positive_finite, default=None)

    p_sum = sub.add_parser("summarize", help="print headline statistics of a written trace")
    p_sum.add_argument("--trace", required=True, help="trace directory")

    p_plot = sub.add_parser("plot", help="emit a plot script next to a written trace")
    p_plot.add_argument("--trace", required=True, help="trace directory")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config_file(args.config)
    trace = run_config(cfg, t_max=args.t_max, grid_dt=args.grid)
    paths = write_trace(trace, args.out)
    print(f"fingerprint {trace.fingerprint}")
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    print(format_summary(summarize(trace)))
    return 1 if trace.fatal else 0


def _cmd_verify(args) -> int:
    cfg = load_config_file(args.config)
    t_max = args.t_max if args.t_max is not None else cfg.run.t_max
    report = verify_scenario(cfg.scenario, cfg.controller, t_max, grid_dt=cfg.run.output_grid)
    print(
        f"checked {report.n_comparisons} occupancies"
        f" ({report.n_samples} samples x {report.n_links} links) to t_max={fmt_num(t_max)}"
    )
    code = 0
    if report.mismatches:
        first = report.mismatches[0]
        print(
            f"MISMATCH at t={fmt_num(first.t)} link {first.link[0]}->{first.link[1]}:"
            f" frame-level {first.oracle} vs closed-form {first.formula}"
            f" ({len(report.mismatches)} total)"
        )
        code = 1
    else:
        print("frame-level replay and closed-form occupancies agree exactly")
    if report.trace.fatal:
        ev = report.trace.first_fatal
        print(
            f"fatal {ev.kind} on link {ev.link[0]}->{ev.link[1]} at t={fmt_num(ev.t)}"
            f" (occupancy {ev.occupancy})"
        )
        code = 1
    return code


def _cmd_summarize(args) -> int:
    trace_dir = Path(args.trace)
    summary = summarize(read_trace(trace_dir))
    if summary.freq_mean == 0.0:  # the spread is reported as a share of the mean
        raise TraceError(f"{trace_dir / 'nodes.csv'}: the final omega values average 0")
    print(format_summary(summary))
    return 0


def _cmd_plot(args) -> int:
    trace_dir = Path(args.trace)
    trace = read_trace(trace_dir)
    path = emit_plot_script(trace, trace_dir / "plot_trace.py")
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "summarize": _cmd_summarize,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print("invalid scenario:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the message names the file
        print(f"unusable file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
