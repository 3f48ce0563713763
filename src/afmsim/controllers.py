"""Decentralized per-node controllers.

Each node's controller sees only that node's buffer occupancies, once per
sampling period, and answers with an additive frequency correction. Built-in
kinds: ``zero`` (no correction), ``proportional`` (gain times summed
occupancy, the bundled scenarios' choice), and ``custom`` (a user-supplied
state-transition / output function pair). A clamp saturates the correction
into a fixed interval, which is the standard way to make any controller
admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

# One measurement: ((neighbor id, occupancy), ...) in ascending neighbor order.
Measurement = Sequence[tuple[int, int]]

KINDS = ("zero", "proportional", "custom")


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative controller description; lives in the scenario config.

    ``beta_ref`` shifts the proportional term to target a nonzero occupancy
    setpoint; the default 0.0 sums raw occupancies. Custom controllers supply
    ``state_fn`` (state, measurement) -> state and ``output_fn``
    (state, measurement) -> correction, with ``init_state`` as the starting
    state; history-dependent schemes put the history inside the state.
    """

    kind: str = "zero"
    k_p: float = 0.0
    beta_ref: float = 0.0
    clamp: tuple[float, float] | None = None
    init_state: object = None
    state_fn: Callable[[object, Measurement], object] | None = None
    output_fn: Callable[[object, Measurement], float] | None = None


class Controller:
    """Runtime controller for a single node.

    The engine calls ``update`` once per sample; the state transition runs
    first and the output is read from the updated state, matching the order
    of the simulation loop body.
    """

    __slots__ = ("spec", "state")

    def __init__(self, spec: ControllerSpec):
        if spec.kind not in KINDS:
            raise ValueError(f"unknown controller kind {spec.kind!r}")
        if spec.kind == "custom" and (spec.state_fn is None or spec.output_fn is None):
            raise ValueError("custom controllers need state_fn and output_fn")
        self.spec = spec
        self.state = spec.init_state

    def update(self, y: Measurement) -> float:
        spec = self.spec
        if spec.kind == "zero":
            c = 0.0
        elif spec.kind == "proportional":
            c = spec.k_p * sum(occ - spec.beta_ref for _, occ in y)
        else:
            self.state = spec.state_fn(self.state, y)
            c = spec.output_fn(self.state, y)
        if spec.clamp is not None:
            lo, hi = spec.clamp
            c = lo if c < lo else hi if c > hi else c
        return c


def make_controllers(spec: ControllerSpec, n_nodes: int) -> list[Controller]:
    """Fresh, independent controller instances, one per node."""
    return [Controller(spec) for _ in range(n_nodes)]


@dataclass(frozen=True)
class AdmissibilityCheck:
    ok: bool
    witness: str


def is_admissible(
    spec: ControllerSpec, omega_u: Sequence[float], omega_min: float
) -> AdmissibilityCheck:
    """Static proof that corrected frequencies stay strictly above the floor.

    Conservative: a True verdict guarantees every reachable correction keeps
    omega above omega_min; False only means the bound cannot be shown from
    the declaration alone (the engine still enforces it at every step).
    A non-finite gain, setpoint or clamp bound is never admissible.
    """
    numbers = {"k_p": spec.k_p, "beta_ref": spec.beta_ref}
    if spec.clamp is not None:
        numbers["clamp lower bound"], numbers["clamp upper bound"] = spec.clamp
    for name, value in numbers.items():
        if not math.isfinite(value):
            return AdmissibilityCheck(False, f"{name} {value!r} is not finite")
    if spec.clamp is not None:
        lo, hi = spec.clamp
        if lo > hi:
            return AdmissibilityCheck(False, f"clamp interval empty: ({lo!r}, {hi!r})")
        what, floor, why = "clamp floor", lo, "clamp floor keeps every node above omega_min"
    elif spec.kind == "zero":
        what, floor, why = "zero correction", 0.0, "zero correction; every omega_u above omega_min"
    elif spec.kind == "proportional":
        if spec.k_p < 0.0:
            return AdmissibilityCheck(
                False, "negative gain: correction unbounded below when occupancies grow"
            )
        # Occupancies are nonnegative while the run is healthy, so the
        # correction is bounded below by -k_p * degree * beta_ref; bound the
        # degree by n - 1 since the graph is not known here.
        max_degree = max(len(omega_u) - 1, 1)
        floor = -spec.k_p * spec.beta_ref * max_degree if spec.beta_ref > 0.0 else 0.0
        what = "worst-case correction"
        why = "nonnegative-occupancy proportional correction bounded below"
    else:
        return AdmissibilityCheck(
            False, "custom controller output cannot be bounded statically; add a clamp"
        )
    for i, wu in enumerate(omega_u, start=1):
        if floor + wu <= omega_min:
            return AdmissibilityCheck(
                False,
                f"{what} {floor!r} + omega_u {wu!r} = {floor + wu!r}"
                f" <= omega_min {omega_min!r} at node {i}",
            )
    return AdmissibilityCheck(True, why)
