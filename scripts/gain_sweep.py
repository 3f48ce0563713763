#!/usr/bin/env python
"""Sweep the proportional gain on the triangle scenario.

For each gain, report how tightly the frequencies have converged by the end
of the horizon and how far the buffers strayed. Gains that are too small
leave the clocks spread apart; large gains converge faster but push
frequencies (and therefore in-flight frame counts) higher.
"""

import argparse
import dataclasses

from afmsim import is_admissible, simulate, summarize
from afmsim.cli import positive_finite
from afmsim.scenarios import triangle3
from afmsim.traceio import fmt_num


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--gains",
        type=float,
        nargs="+",
        default=[0.001, 0.002, 0.005, 0.01, 0.02, 0.05],
    )
    parser.add_argument("--t-max", type=positive_finite, default=500.0)
    args = parser.parse_args()

    cfg = triangle3()
    par = cfg.scenario.params
    controllers = [dataclasses.replace(cfg.controller, k_p=k_p) for k_p in args.gains]
    for controller in controllers:
        verdict = is_admissible(controller, par.omega_u, par.omega_min)
        if not verdict.ok:
            parser.error(f"--gains {controller.k_p!r}: {verdict.witness}")

    print(f"{'k_p':>8} {'spread':>14} {'spread %':>10} {'mean omega':>12} "
          f"{'beta range':>14} {'fatal':>6}")
    for controller in controllers:
        trace = simulate(cfg.scenario, controller, args.t_max)
        s = summarize(trace)
        beta_lo = min(st.beta_min for st in s.link_stats.values())
        beta_hi = max(st.beta_max for st in s.link_stats.values())
        fatal = trace.first_fatal.kind if trace.fatal else "-"
        print(
            f"{fmt_num(controller.k_p):>8} {fmt_num(s.freq_spread):>14}"
            f" {fmt_num(100 * s.freq_spread / s.freq_mean):>10}"
            f" {fmt_num(s.freq_mean):>12} {f'[{beta_lo}, {beta_hi}]':>14} {fatal:>6}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
