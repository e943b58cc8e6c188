"""Partitioned-decoder execution: cost-model simulation and live workers."""

from .model import (
    DEFAULT_SPEEDUP_TARGETS,
    CalibrationWarning,
    CostModel,
    IterationCost,
    MeshPlacement,
    SimReport,
    calibrate,
    modeled_speedups,
    parallel_iteration_cost,
    plot_csv,
    sequential_iteration_cycles,
    simulate_parallel,
    simulate_sequential,
)
from .workers import (
    WORKER_CAP_ENV,
    run_parallel_workers,
    run_sequential_baseline,
)

__all__ = [
    "DEFAULT_SPEEDUP_TARGETS",
    "CalibrationWarning",
    "CostModel",
    "IterationCost",
    "MeshPlacement",
    "SimReport",
    "WORKER_CAP_ENV",
    "calibrate",
    "modeled_speedups",
    "parallel_iteration_cost",
    "plot_csv",
    "run_parallel_workers",
    "run_sequential_baseline",
    "sequential_iteration_cycles",
    "simulate_parallel",
    "simulate_sequential",
]
