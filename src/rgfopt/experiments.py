"""Canned, versioned experiment configurations and their artifacts.

Three experiments ship with the library:

* tracking + per-agent regret on a 10-agent random digraph,
* the agent-count sweep on rings (time-averaged regret vs N),
* a diagnostics bundle (smoothing checks, oracle moment checks, spectral
  report, residual-ratio study).

Every experiment writes CSV series plus a JSON metadata file that closes
over all seeds and parameters, so a run can be reproduced bit-for-bit from
its metadata alone.  Outputs land under out/<experiment>/<timestamp>/
unless an explicit directory is given.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithm import ConfigError, RunConfig, Trace, csv_text, run
from .analysis import (
    DELTA_GRID,
    RegretLedger,
    build_regret_ledger,
    consensus_curve,
    spectral_report,
    theta_over_gamma,
)
from .graph import equal_neighbor_weights, make_cycle
from .oracle import (
    ObjectiveStream,
    OracleConfig,
    gradient_free_oracle,
    norm_stream,
    smoothed_value_mc_stats,
)


def _out_dir(experiment: str, out_dir=None) -> Path:
    if out_dir is not None:
        path = Path(out_dir)
    else:
        stamp = _dt.datetime.now().strftime("%Y%m%d-%H%M%S-%f")
        path = Path("out") / experiment / stamp
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def rerun_from_metadata(meta_path) -> Trace:
    """Rebuild the run configuration recorded in a metadata file and rerun it.

    Takes the run_meta.json of `experiment_fig2_3` or of `rgfopt run`, which
    record one run under "config"."""
    meta = json.loads(Path(meta_path).read_text())
    if "config" not in meta:
        raise ValueError(f"{meta_path} records no single run under 'config'; fig4 keeps one "
                         f"config per N under 'configs', each for RunConfig.from_dict")
    return run(RunConfig.from_dict(meta["config"]))


@dataclass
class TrackingExperimentResult:
    trace: Trace
    ledger: RegretLedger
    out_dir: Path
    paths: dict = field(default_factory=dict)


def experiment_fig2_3(seed: int = 0, horizon: int = 5000, out_dir=None) -> TrackingExperimentResult:
    """Ten agents on a random strongly connected digraph tracking the moving
    minimizer; emits trajectory, regret, and consensus series.  The
    topology is RunConfig's default, a stand-in for the unspecified one:
    a cycle backbone plus random extra edges, echoed into metadata."""
    config = RunConfig(horizon=horizon, master_seed=seed)
    trace = run(config)
    directory = _out_dir("fig2_3", out_dir)
    ledger = build_regret_ledger(trace)

    paths = {}
    paths["trajectories"] = directory / "trajectories.csv"
    paths["trajectories"].write_text(trace.to_csv_text())

    rc = ledger.regret_curve[1:]
    t_axis = np.arange(1, horizon + 1)
    paths["regret"] = directory / "regret.csv"
    paths["regret"].write_text(csv_text(
        ["t", "agent", "regret", "time_avg_regret"],
        [np.repeat(t_axis, config.n_agents), np.tile(np.arange(config.n_agents), horizon),
         rc.ravel(), (rc / t_axis[:, None]).ravel()]))

    paths["consensus"] = directory / "consensus.csv"
    paths["consensus"].write_text(csv_text(["t", "spread", "spread_augmented"],
                                           [np.arange(horizon + 1), trace.spread,
                                            consensus_curve(trace)]))

    meta = trace.metadata()
    meta["experiment"] = "fig2_3"
    meta["path_length"] = ledger.path_length_value
    meta["offline_cost"] = ledger.offline_cost
    meta["regret_final"] = ledger.regret.tolist()
    paths["metadata"] = directory / "run_meta.json"
    _write_json(paths["metadata"], meta)
    paths["plot_script"] = directory / "plot_figs.py"
    paths["plot_script"].write_text(_PLOT_SCRIPT)
    return TrackingExperimentResult(trace=trace, ledger=ledger, out_dir=directory, paths=paths)


@dataclass
class AgentSweepResult:
    agent_counts: tuple
    mean_time_avg: dict              # n -> (T,) curve over t = 1..T
    final_values: dict               # n -> value at T
    out_dir: Path
    paths: dict = field(default_factory=dict)


def experiment_fig4(seed: int = 0, agent_counts=(10, 50, 100, 200), horizon: int = 5000,
                    out_dir=None) -> AgentSweepResult:
    """Time-averaged regret versus network size on bidirectional rings, which
    reproduce the expected descending curves (a one-way cycle is spectrally
    unstable at the standard gain 0.1).  The same seed value is reused for
    every N (coefficient shapes differ per N, so streams are regenerated;
    the policy is recorded in metadata).
    """
    configs = [RunConfig(n_agents=n, graph_kind="ring", graph_seed=seed,
                         horizon=horizon, master_seed=seed,
                         record_surplus=False, record_oracle=False) for n in agent_counts]
    if horizon < 1:
        raise ConfigError(f"fig4 needs horizon >= 1, got horizon={horizon}")
    directory = _out_dir("fig4", out_dir)
    t_axis = np.arange(1, horizon + 1)
    mean_curves, finals, warnings = {}, {}, {}
    for n, config in zip(agent_counts, configs):
        trace = run(config)
        curve = mean_curves[n] = build_regret_ledger(trace).regret_curve[1:].mean(axis=1) / t_axis
        finals[n] = float(curve[-1])
        warnings[str(n)] = trace.warnings
        del trace  # no earlier ring's histories stay alive while the next ring runs

    paths = {}
    paths["series"] = directory / "fig4_series.csv"
    paths["series"].write_text(csv_text(
        ["t", "n_agents", "mean_time_avg_regret"],
        [np.tile(t_axis, len(agent_counts)),
         np.repeat(np.array(agent_counts, dtype=int), horizon),
         np.array([mean_curves[n] for n in agent_counts]).ravel()]))
    meta = {
        "experiment": "fig4",
        "agent_counts": list(agent_counts),
        "ring_kind": "ring",
        "seed_policy": "same master seed per N; per-N streams regenerated",
        "configs": {str(n): config.to_dict() for n, config in zip(agent_counts, configs)},
        "final_values": {str(n): finals[n] for n in agent_counts},
        "warnings": warnings,
    }
    paths["metadata"] = directory / "run_meta.json"
    _write_json(paths["metadata"], meta)
    paths["plot_script"] = directory / "plot_figs.py"
    paths["plot_script"].write_text(_PLOT_SCRIPT)
    return AgentSweepResult(agent_counts=tuple(agent_counts), mean_time_avg=mean_curves,
                            final_values=finals, out_dir=directory, paths=paths)


def quadratic_norm_stream(dim: int) -> ObjectiveStream:
    """Single-agent squared-norm cost ||x||^2, used by the moment diagnostics."""
    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        x = np.asarray(x)
        return float(x.dot(x))

    return ObjectiveStream(n_agents=1, dim=dim, evaluate=evaluate)


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; the stacked row dot has the bits of each
    row's x.dot(x), so row k equals norm_stream(1, p).evaluate(0, 0, points[k])."""
    return np.sqrt((points[:, None, :] @ points[:, :, None]).ravel())


# Points, dimensions and smoothing gains of the Monte Carlo criteria 3-5
SANDWICH_POINTS, SANDWICH_MU = 20, 0.05
UNBIASED_DIM, UNBIASED_POINTS, UNBIASED_MU = 3, 5, 0.01
MOMENT_DIMS, MOMENT_MU = (1, 2, 5), 1e-3


def sandwich_table(n_samples: int, seed: int) -> list[dict]:
    """Smoothing sandwich check rows for f(x) = |x| at SANDWICH_POINTS points
    uniform in [-2, 2], with mu = SANDWICH_MU.

    Each row compares the Monte Carlo smoothed value against the bracket
    [f(x) - 3 se, f(x) + sqrt(p) mu D + 3 se].
    """
    stream = norm_stream(1, dim=1)
    d_bound = stream.subgradient_bound(2.0)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, SANDWICH_POINTS)
    rows = []
    for k, xv in enumerate(points):
        x = np.array([xv])
        f_val = stream.evaluate(0, 0, x)
        est, se = smoothed_value_mc_stats(_row_norms, x, SANDWICH_MU, n_samples, seed + 1 + k)
        upper = f_val + math.sqrt(stream.dim) * SANDWICH_MU * d_bound
        rows.append({
            "x": float(xv), "f": f_val, "f_mu_est": est, "stderr": se,
            "lower": f_val - 3.0 * se, "upper": upper + 3.0 * se,
            "within": bool(f_val - 3.0 * se <= est <= upper + 3.0 * se),
        })
    return rows


def _oracle_mean(stream: ObjectiveStream, cfg: OracleConfig, points,
                 n_draws: int) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Empirical mean of oracle draws at each of `points` over t = 0..n-1, with
    per-coordinate standard errors and the mean squared norm, one tuple per point.
    Draws run time-major, every point at t before any point at t + 1, as run()
    draws its agents, so each direction block is drawn once for all points."""
    if not 1 <= n_draws <= 1 << 32:  # draws take the direction times 0..n_draws-1
        raise ValueError(f"n_draws must be >= 1 and <= {1 << 32}, got {n_draws}")
    dim = cfg.dim
    step = max(1, 2048 // len(points))  # times per pass: a budget of 2,048 draws
    # row 0 carries each point's sums of g, g * g and g @ g, which one in-place
    # np.add.accumulate per pass extends strictly in draw order, as `+=` would
    sums = np.zeros((min(step, n_draws) + 1, len(points), 2 * dim + 1))
    for t0 in range(0, n_draws, step):
        rows = sums[:min(step, n_draws - t0) + 1]
        g = rows[1:, :, :dim]
        g[...] = np.concatenate([gradient_free_oracle(stream, cfg, 0, t, x)
                                 for t in range(t0, t0 + len(g)) for x in points]).reshape(g.shape)
        np.multiply(g, g, out=rows[1:, :, dim:-1])
        # the stacked row dot has the bits of each row's g @ g
        rows[1:, :, -1] = (g[..., None, :] @ g[..., :, None])[..., 0, 0]
        sums[0] = np.add.accumulate(rows, out=rows)[-1]
    mean = sums[0, :, :dim] / n_draws
    stderr = np.sqrt(np.maximum(sums[0, :, dim:-1] / n_draws - mean ** 2, 0.0) / n_draws)
    return list(zip(mean, stderr, sums[0, :, -1] / n_draws))


def _square_norms(points: np.ndarray) -> np.ndarray:
    # the finite-difference reference's own formula, not the stream's row dot,
    # so its pinned bits stay
    return (points ** 2).sum(axis=1)


def unbiasedness_check(n_draws: int, seed: int) -> list[dict]:
    """Oracle-mean versus smoothed-gradient rows for the squared-norm cost at
    UNBIASED_POINTS points in R^UNBIASED_DIM, with mu = UNBIASED_MU.

    The reference gradient is a central finite difference (step 0.1) of the
    Monte Carlo smoothed value, with `n_draws` samples like the oracle mean
    and seeds independent of the oracle stream.
    """
    dim, mu = UNBIASED_DIM, UNBIASED_MU
    stream = quadratic_norm_stream(dim)
    cfg = OracleConfig(1, mu, dim, rng_seed=seed)
    rng = np.random.default_rng(seed + 1)
    points = [rng.uniform(-1.0, 1.0, dim) for _ in range(UNBIASED_POINTS)]
    means = _oracle_mean(stream, cfg, points, n_draws)
    rows = []
    for k, (x, (mean, stderr, _)) in enumerate(zip(points, means)):
        fd = np.empty(dim)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 0.1
            fd_seed = seed + 1000 + 2 * (k * dim + j)
            hi, _ = smoothed_value_mc_stats(_square_norms, x + e, mu, n_draws, fd_seed)
            lo, _ = smoothed_value_mc_stats(_square_norms, x - e, mu, n_draws, fd_seed + 1)
            fd[j] = (hi - lo) / (2.0 * 0.1)
        sigmas = np.abs(mean - fd) / np.maximum(stderr, 1e-300)
        rows.append({
            "x": x.tolist(), "oracle_mean": mean.tolist(), "fd_gradient": fd.tolist(),
            "stderr": stderr.tolist(), "max_sigmas": float(sigmas.max()),
            "within_4_sigma": bool((sigmas <= 4.0).all()),
        })
    return rows


def second_moment_check(n_draws: int, seed: int) -> list[dict]:
    """Mean squared oracle norm against the (p+4)^2 D^2 ceiling on a
    unit-Lipschitz stream with mu = MOMENT_MU, one row per p in MOMENT_DIMS."""
    rows = []
    for p in MOMENT_DIMS:
        stream = norm_stream(1, dim=p)
        cfg = OracleConfig(1, MOMENT_MU, p, rng_seed=seed + p)
        rng = np.random.default_rng(seed + 100 + p)
        x = rng.uniform(-1.0, 1.0, p)
        [(_, _, mean_norm_sq)] = _oracle_mean(stream, cfg, [x], n_draws)
        ceiling = (p + 4) ** 2 * stream.subgradient_bound(math.sqrt(p)) ** 2
        rows.append({
            "dim": p, "mean_norm_sq": float(mean_norm_sq), "ceiling": float(ceiling),
            "within": bool(mean_norm_sq <= ceiling),
        })
    return rows


@dataclass
class DiagnosticsResult:
    sandwich: list
    unbiasedness: list
    second_moment: list
    spectral: dict                    # topology name -> list[SpectralRow]
    delta_hat_values: dict            # topology name -> float
    theta_ratio_max: float
    out_dir: Path
    paths: dict = field(default_factory=dict)


def experiment_diagnostics(seed: int = 0, horizon: int = 5000, n_samples: int = 100_000,
                           out_dir=None) -> DiagnosticsResult:
    """Property-study bundle: smoothing and oracle moment tables, spectral
    reports with the conservative gain bound per topology, and the
    residual-over-step-size study along a full tracking run."""
    config = RunConfig(horizon=horizon, master_seed=seed)
    if horizon < 10 or not 1 <= n_samples <= 1 << 32:
        # the residual-ratio window starts at t = 10; a sample takes one time < 2^32
        raise ConfigError(f"diagnostics needs horizon >= 10 and n_samples >= 1 and "
                          f"<= {1 << 32}, got horizon={horizon}, n_samples={n_samples}")
    directory = _out_dir("diagnostics", out_dir)
    sandwich = sandwich_table(n_samples=n_samples, seed=seed + 2024)
    unbiased = unbiasedness_check(n_draws=n_samples, seed=seed + 11)
    second = second_moment_check(n_draws=n_samples, seed=seed + 5)

    trace = run(config)
    topologies = {"cycle_10": equal_neighbor_weights(make_cycle(10)), "random_10": trace.weights}
    spectral = {name: spectral_report(wp, DELTA_GRID) for name, wp in topologies.items()}
    dh_values = {name: report[0].delta_hat_value for name, report in spectral.items()}
    ratio = theta_over_gamma(trace)
    lo_t, hi_t = max(10, horizon // 10), horizon
    running_max = np.maximum.accumulate(ratio)
    span = float(running_max[hi_t - 1] / running_max[lo_t - 1])
    ratio_max = float(ratio[9:horizon].max())

    paths = {}
    paths["sandwich"] = directory / "sandwich.csv"
    paths["sandwich"].write_text(csv_text(
        ["x", "f", "f_mu_est", "stderr", "lower", "upper", "within"],
        list(zip(*([r["x"], r["f"], r["f_mu_est"], r["stderr"], r["lower"], r["upper"],
                    int(r["within"])] for r in sandwich)))))
    paths["spectral"] = directory / "spectral.csv"
    spec_rows = [[name, row.delta, row.delta_hat_value,
                  *(math.nan if v is None else v for v in (row.lambda_fit, row.c_fit, row.r_squared)),
                  int(row.geometric)]
                 for name, report in spectral.items() for row in report]
    paths["spectral"].write_text(csv_text(
        ["topology", "delta", "delta_hat", "lambda_fit", "c_fit", "r_squared", "geometric"],
        list(zip(*spec_rows))))
    summary = {
        "experiment": "diagnostics",
        "seed": seed,
        "delta_hat": dh_values,
        "sandwich_all_within": all(r["within"] for r in sandwich),
        "unbiasedness": unbiased,
        "second_moment": second,
        "theta_ratio_max": ratio_max,
        "theta_ratio_running_max_final_decade_span": span,
        "run_config": config.to_dict(),
    }
    paths["summary"] = directory / "diagnostics.json"
    _write_json(paths["summary"], summary)
    return DiagnosticsResult(
        sandwich=sandwich, unbiasedness=unbiased, second_moment=second,
        spectral=spectral, delta_hat_values=dh_values,
        theta_ratio_max=ratio_max, out_dir=directory, paths=paths,
    )


_PLOT_SCRIPT = '''"""Render figures from the CSV series in this directory.

Run with any matplotlib-equipped interpreter:  python plot_figs.py
"""
import csv
import pathlib

import matplotlib.pyplot as plt

here = pathlib.Path(__file__).parent


def load(name):
    with open(here / name) as fh:
        rows = list(csv.DictReader(fh))
    return rows


if (here / "trajectories.csv").exists():
    rows = load("trajectories.csv")
    agents = sorted({int(r["agent"]) for r in rows})
    fig, ax = plt.subplots()
    for i in agents:
        ts = [int(r["t"]) for r in rows if int(r["agent"]) == i]
        xs = [float(r["x_0"]) for r in rows if int(r["agent"]) == i]
        ax.plot(ts, xs, lw=0.8)
    if "x_star_0" in rows[0]:
        ts = sorted({int(r["t"]) for r in rows})
        star = {int(r["t"]): float(r["x_star_0"]) for r in rows}
        ax.plot(ts, [star[t] for t in ts], "k--", lw=1.5, label="offline optimum")
        ax.legend()
    ax.set_xlabel("t"); ax.set_ylabel("decision")
    fig.savefig(here / "trajectories.png", dpi=150)

if (here / "regret.csv").exists():
    rows = load("regret.csv")
    agents = sorted({int(r["agent"]) for r in rows})
    fig, ax = plt.subplots()
    for i in agents:
        ts = [int(r["t"]) for r in rows if int(r["agent"]) == i]
        vs = [float(r["time_avg_regret"]) for r in rows if int(r["agent"]) == i]
        ax.plot(ts, vs, lw=0.8)
    ax.set_xlabel("t"); ax.set_ylabel("time-averaged regret")
    fig.savefig(here / "time_avg_regret.png", dpi=150)

if (here / "fig4_series.csv").exists():
    rows = load("fig4_series.csv")
    counts = sorted({int(r["n_agents"]) for r in rows})
    fig, ax = plt.subplots()
    for n in counts:
        ts = [int(r["t"]) for r in rows if int(r["n_agents"]) == n]
        vs = [float(r["mean_time_avg_regret"]) for r in rows if int(r["n_agents"]) == n]
        ax.plot(ts, vs, label=f"N={n}")
    ax.set_xlabel("t"); ax.set_ylabel("mean time-averaged regret"); ax.legend()
    fig.savefig(here / "agent_sweep.png", dpi=150)

print("figures written to", here)
'''
