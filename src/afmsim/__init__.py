"""Frame-exact simulation of decentralized clock synchronization.

A network of nodes exchanges fixed-size frames over latency links into
elastic buffers, each node timing its sends off a local clock whose
frequency a decentralized controller nudges using only that node's buffer
occupancies. The package computes exact trajectories and frame counts, and
ships a brute-force frame-level replay as an independent cross-check.
"""

from .config import (
    ConfigError,
    RunSettings,
    ScenarioConfig,
    load_config,
    load_config_file,
    run_config,
)
from .controllers import (
    AdmissibilityCheck,
    Controller,
    ControllerSpec,
    is_admissible,
    make_controllers,
)
from .engine import (
    FatalEvent,
    SampleRecord,
    SystemState,
    Trace,
    compute_lambdas,
    init_state,
    simulate,
    step,
)
from .oracle import (
    Mismatch,
    ReplayResult,
    VerifyReport,
    compare,
    replay,
    verify_scenario,
)
from .topology import (
    Link,
    Scenario,
    SystemParams,
    Topology,
    ValidationError,
    Violation,
    check,
    validate,
)
from .traceio import (
    Summary,
    emit_plot_script,
    format_summary,
    read_trace,
    summarize,
    write_trace,
)
from .trajectory import AdmissibilityError, ClockTrajectory, DomainError

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityCheck",
    "AdmissibilityError",
    "ClockTrajectory",
    "ConfigError",
    "Controller",
    "ControllerSpec",
    "DomainError",
    "FatalEvent",
    "Link",
    "Mismatch",
    "ReplayResult",
    "RunSettings",
    "SampleRecord",
    "Scenario",
    "ScenarioConfig",
    "Summary",
    "SystemParams",
    "SystemState",
    "Topology",
    "Trace",
    "ValidationError",
    "VerifyReport",
    "Violation",
    "check",
    "compare",
    "compute_lambdas",
    "emit_plot_script",
    "format_summary",
    "init_state",
    "is_admissible",
    "load_config",
    "load_config_file",
    "make_controllers",
    "read_trace",
    "replay",
    "run_config",
    "simulate",
    "step",
    "summarize",
    "validate",
    "verify_scenario",
    "write_trace",
]
