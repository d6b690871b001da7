"""repro — a reproduction of "Optimistic Causal Consistency for
Geo-Replicated Key-Value Stores" (Spirovska, Didona, Zwaenepoel; ICDCS 2017).

The package implements the paper's contribution (the POCC protocol,
Algorithms 1-2), its pessimistic baseline (Cure*), the availability
fall-back (HA-POCC), and the full substrate the evaluation needs — a
discrete-event geo-replication simulator with per-node CPUs and physical
clocks, workload generators, metrics, an experiment harness that
regenerates every figure of Section V, and an independent causal
consistency checker.

Quick start::

    from repro import ExperimentConfig, ClusterConfig, WorkloadConfig
    from repro import run_experiment

    config = ExperimentConfig(
        cluster=ClusterConfig(num_partitions=4, protocol="pocc"),
        workload=WorkloadConfig(kind="get_put", gets_per_put=8),
        duration_s=2.0,
    )
    result = run_experiment(config)
    print(result.summary_text())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.common.config import (
    ClockConfig,
    ClusterConfig,
    ExperimentConfig,
    LatencyConfig,
    ProtocolConfig,
    ServiceTimeConfig,
    WorkloadConfig,
    paper_scale_cluster,
    smoke_scale_cluster,
)
from repro.common.errors import (
    ConfigError,
    ProtocolError,
    ReproError,
    SessionClosedError,
    SimulationError,
)
from repro.common.types import Address, NodeKind, OpType
from repro.clocks.vector import VectorClock
from repro.harness.builders import BuiltCluster, build_cluster
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.parallel import run_experiments
from repro.harness.replicates import (
    AggregateStat,
    ReplicatedResult,
    run_replicates,
)
from repro.protocols.recovery import (
    RecoveryReport,
    lost_update_exposure,
    recover_from_dc_failure,
)
from repro.protocols.registry import PROTOCOLS
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector
from repro.storage.version import Version
from repro.verification.checker import CausalChecker, Violation
from repro.verification.convergence import (
    check_convergence,
    check_convergence_among,
)
from repro.workload.presets import WORKLOAD_PRESETS, preset

__version__ = "1.0.0"

__all__ = [
    "Address",
    "AggregateStat",
    "BuiltCluster",
    "CausalChecker",
    "ClockConfig",
    "ClusterConfig",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultInjector",
    "LatencyConfig",
    "NodeKind",
    "OpType",
    "PROTOCOLS",
    "ProtocolConfig",
    "ProtocolError",
    "RecoveryReport",
    "ReplicatedResult",
    "ReproError",
    "ServiceTimeConfig",
    "SessionClosedError",
    "SimulationError",
    "Simulator",
    "VectorClock",
    "Version",
    "Violation",
    "WORKLOAD_PRESETS",
    "WorkloadConfig",
    "build_cluster",
    "check_convergence",
    "check_convergence_among",
    "lost_update_exposure",
    "paper_scale_cluster",
    "preset",
    "recover_from_dc_failure",
    "run_experiment",
    "run_experiments",
    "run_replicates",
    "smoke_scale_cluster",
    "__version__",
]
