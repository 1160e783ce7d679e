"""Seedable simulator and analysis toolkit for randomized gradient-free
distributed online optimization over strongly connected digraphs."""

from .graph import (
    AugmentedMatrix,
    Digraph,
    GraphError,
    WeightPair,
    build_augmented,
    delta_hat,
    equal_neighbor_weights,
    is_strongly_connected,
    limit_matrix,
    make_complete,
    make_cycle,
    make_random_strongly_connected,
    make_ring,
    matrix_power_gap,
    matrix_power_gap_series,
)
from .oracle import (
    ObjectiveStream,
    OracleConfig,
    OracleError,
    constant_stream,
    gradient_free_oracle,
    linear_probe_stream,
    make_stream,
    norm_stream,
    paper_objective_stream,
    sample_direction,
    smoothed_value_mc_stats,
    tracking_target,
)
from .algorithm import (
    AgentStates,
    Ball,
    Box,
    ConfigError,
    RunConfig,
    SimulationError,
    StepSchedule,
    Trace,
    constant_schedule,
    fit_geometric_decay,
    inv_sqrt_schedule,
    make_graph,
    run,
    step_all,
)
from .analysis import (
    BoundBreakdown,
    BoundInputs,
    ConsensusCurves,
    RegretLedger,
    SpectralRow,
    build_regret_ledger,
    consensus_curve,
    fit_constants_from_trace,
    path_length,
    regret_bound_rhs,
    spectral_report,
    theta_over_gamma,
)
from .experiments import (
    experiment_diagnostics,
    experiment_fig2_3,
    experiment_fig4,
    rerun_from_metadata,
)

__version__ = "0.1.0"
