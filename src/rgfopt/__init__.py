"""Seedable simulator and analysis toolkit for randomized gradient-free
distributed online optimization over strongly connected digraphs.

The names imported here are the public API.  Everything else lives in the
submodules (`graph`, `oracle`, `algorithm`, `analysis`, `experiments`,
`cli`) and is imported from there.
"""

from .graph import (
    GraphError,
    build_augmented,
    delta_hat,
    equal_neighbor_weights,
    is_strongly_connected,
    make_cycle,
    make_random_strongly_connected,
    make_ring,
    matrix_power_gap_series,
)
from .oracle import (
    ObjectiveStream,
    OracleConfig,
    OracleError,
    gradient_free_oracle,
    make_stream,
    norm_stream,
    smoothed_value_mc_stats,
    tracking_target,
)
from .algorithm import ConfigError, RunConfig, SimulationError, run
from .analysis import build_regret_ledger, consensus_curve, spectral_report, theta_over_gamma

__version__ = "0.1.0"
