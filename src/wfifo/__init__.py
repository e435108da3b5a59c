"""Utility-optimal flow control for FIFO queues over ON/OFF wireless channels.

N FIFO queues share one transmission slot. Each flow sees an i.i.d. ON/OFF
channel, and a queue can transmit only while its head-of-line packet's
channel is ON, so one bad flow can block a whole queue. The package bundles
the closed-form head-of-line Markov analysis, stability-region membership
checks, the offline convex rate allocator (dFC), its online queue-driven
counterpart (qFC) plus a max-weight baseline, and a slotted simulator with
a CLI for analysis, solving, simulation, sweeps, and canned experiments.
"""

from .core import (
    ConfigError,
    FlowSpec,
    NetworkConfig,
    QueueSpec,
    SchedulingPolicy,
    Utility,
    config_digest,
    config_from_dict,
    load_config,
)
from .dfc import DfcSolution, solve_dfc
from .lockstep import run_batch
from .markov import (
    SteadyState,
    joint_state_hol_prob,
    single_queue_steady_state,
)
from .policies import (
    MaxWeightPolicy,
    Policy,
    QfcPolicy,
    StaticPolicy,
    build_policy,
    serve_if_on_policy,
    static_dfc_policy,
)
from .sim import (
    RunSpec,
    SaturatedMetrics,
    StabilityVerdict,
    TraceMetrics,
    detect_stability,
    run,
    run_saturated,
)
from .stability import (
    Margin,
    best_policy_search,
    check_inner_bound,
    check_service_region,
    check_stability_region,
    single_queue_margin,
    sweep_two_queue_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DfcSolution",
    "FlowSpec",
    "Margin",
    "MaxWeightPolicy",
    "NetworkConfig",
    "Policy",
    "QfcPolicy",
    "QueueSpec",
    "RunSpec",
    "SaturatedMetrics",
    "SchedulingPolicy",
    "StabilityVerdict",
    "StaticPolicy",
    "SteadyState",
    "TraceMetrics",
    "Utility",
    "best_policy_search",
    "build_policy",
    "check_inner_bound",
    "check_service_region",
    "check_stability_region",
    "config_digest",
    "config_from_dict",
    "detect_stability",
    "joint_state_hol_prob",
    "load_config",
    "run",
    "run_batch",
    "run_saturated",
    "serve_if_on_policy",
    "single_queue_margin",
    "single_queue_steady_state",
    "solve_dfc",
    "static_dfc_policy",
    "sweep_two_queue_boundary",
    "__version__",
]
