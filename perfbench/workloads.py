"""The benchmark's workloads: one public rgfopt entry point each.

A rep calls the entry point with the benchmark seed as the experiment's
seed and writes its artifacts into an empty directory.  Each workload also
states how much agent and oracle work one rep does, which run configs it
sets up, which artifacts must be byte-stable, and what else its output has
to satisfy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TRACK_AGENTS = 10                   # experiment_fig2_3's network
RING_AGENT_COUNTS = (10, 50, 100, 200)  # the sweep `rgfopt experiment fig4` runs
# Oracle draws per Monte Carlo sample in experiment_diagnostics: five
# unbiasedness points plus three second-moment dimensions.
MC_DRAWS_PER_SAMPLE = 5 + 3
CONSERVATION_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict                      # the benchmark's sizes
    toy: dict                        # warm-up and self-test sizes
    artifacts: tuple                 # files whose bytes must repeat exactly
    rep: Callable                    # (seed, sizes, out_dir) -> experiment result
    agent_steps: Callable            # sizes -> sum of N * T over the rep's runs
    draws: Callable                  # sizes -> two-point oracle draws per rep
    setup_configs: Callable          # out_dir -> run configs (dicts) of the rep
    validate: Callable               # (result, out_dir, seed, sizes, pinned) -> problems


def _expect_lines(out: Path, expected: dict) -> list[str]:
    return [f"{name}: {got} lines, expected {want}"
            for name, want in expected.items()
            if (got := len((out / name).read_text().splitlines())) != want]


# --- track10: experiment_fig2_3 -------------------------------------------

def _track10_rep(seed, sizes, out):
    from rgfopt import experiments
    return experiments.experiment_fig2_3(seed=seed, horizon=sizes["horizon"], out_dir=out)


def _track10_validate(result, out, seed, sizes, pinned):
    h, n = sizes["horizon"], TRACK_AGENTS
    problems = _expect_lines(out, {"trajectories.csv": (h + 1) * n + 1,
                                   "regret.csv": h * n + 1,
                                   "consensus.csv": h + 2})
    trace = result.trace
    # The augmented matrix is column-stochastic, so the stacked mean moves
    # by exactly the mean projection residual each step.
    phi_mean = (trace.x.sum(axis=1) + trace.y.sum(axis=1)) / n
    drift = float(np.abs(np.diff(phi_mean, axis=0) - trace.theta.sum(axis=1) / n).max())
    if not drift <= CONSERVATION_TOL:
        problems.append(f"stacked-mean conservation broken by {drift:.3e}")
    meta = json.loads((out / "run_meta.json").read_text())
    if meta["config"]["master_seed"] != seed or meta["config"]["horizon"] != h:
        problems.append("run_meta.json does not record the requested seed and horizon")
    if not np.isfinite(meta["regret_final"]).all():
        problems.append("non-finite final regret")
    return problems


def _track10_configs(out):
    return [json.loads((out / "run_meta.json").read_text())["config"]]


# --- ring_sweep: `rgfopt experiment fig4`, in-process ----------------------

def _ring_rep(seed, sizes, out):
    from rgfopt import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["experiment", "fig4", "--seed", str(seed),
                         "--horizon", str(sizes["horizon"]), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"`rgfopt experiment fig4` exited with code {code}")
    return code


def _ring_validate(result, out, seed, sizes, pinned):
    h = sizes["horizon"]
    lines = (out / "fig4_series.csv").read_text().splitlines()
    if lines[0] != "t,n_agents,mean_time_avg_regret":
        return [f"fig4_series.csv header is {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    expected = [(t, n) for n in RING_AGENT_COUNTS for t in range(1, h + 1)]
    if [(int(r[0]), int(r[1])) for r in rows] != expected:
        return ["fig4_series.csv does not hold t = 1..T for every ring size"]
    problems = []
    values = [float(r[2]) for r in rows]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite regret in fig4_series.csv")
    meta = json.loads((out / "run_meta.json").read_text())
    finals = [values[(k + 1) * h - 1] for k in range(len(RING_AGENT_COUNTS))]
    if [meta["final_values"][str(n)] for n in RING_AGENT_COUNTS] != finals:
        problems.append("run_meta.json final values differ from the series")
    return problems


def _ring_configs(out):
    return list(json.loads((out / "run_meta.json").read_text())["configs"].values())


# --- mc_diag: experiment_diagnostics --------------------------------------

def _mc_rep(seed, sizes, out):
    from rgfopt import experiments
    return experiments.experiment_diagnostics(seed=seed, horizon=sizes["horizon"],
                                              n_samples=sizes["n_samples"], out_dir=out)


def _mc_validate(result, out, seed, sizes, pinned):
    problems = _expect_lines(out, {"sandwich.csv": 21, "spectral.csv": 9})
    summary = json.loads((out / "diagnostics.json").read_text())
    if summary["seed"] != seed:
        problems.append("diagnostics.json does not record the requested seed")
    if len(summary["unbiasedness"]) != 5 or len(summary["second_moment"]) != 3:
        problems.append("diagnostics.json has the wrong number of oracle check rows")
    if not 0.0 < summary["theta_ratio_max"] < math.inf:
        problems.append(f"theta_ratio_max is {summary['theta_ratio_max']}")
    # Statistical pass/fail flags can fail by chance at an arbitrary seed;
    # they are gated only at the pinned one.
    if pinned:
        if not summary["sandwich_all_within"]:
            problems.append("smoothing sandwich failed at the pinned seed")
        if not all(row["within_4_sigma"] for row in summary["unbiasedness"]):
            problems.append("oracle unbiasedness failed at the pinned seed")
        if not all(row["within"] for row in summary["second_moment"]):
            problems.append("oracle second-moment ceiling failed at the pinned seed")
    return problems


def _mc_configs(out):
    return [json.loads((out / "diagnostics.json").read_text())["run_config"]]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="track10",
        sizes={"horizon": 5000}, toy={"horizon": 20},
        artifacts=("trajectories.csv", "regret.csv", "consensus.csv", "run_meta.json"),
        rep=_track10_rep,
        agent_steps=lambda s: TRACK_AGENTS * s["horizon"],
        draws=lambda s: TRACK_AGENTS * s["horizon"],
        setup_configs=_track10_configs, validate=_track10_validate),
    Workload(
        name="ring_sweep",
        sizes={"horizon": 100}, toy={"horizon": 3},
        artifacts=("fig4_series.csv", "run_meta.json"),
        rep=_ring_rep,
        agent_steps=lambda s: sum(RING_AGENT_COUNTS) * s["horizon"],
        draws=lambda s: sum(RING_AGENT_COUNTS) * s["horizon"],
        setup_configs=_ring_configs, validate=_ring_validate),
    Workload(
        name="mc_diag",
        sizes={"horizon": 1000, "n_samples": 5000}, toy={"horizon": 20, "n_samples": 50},
        artifacts=("diagnostics.json", "sandwich.csv", "spectral.csv"),
        rep=_mc_rep,
        agent_steps=lambda s: TRACK_AGENTS * s["horizon"],
        draws=lambda s: TRACK_AGENTS * s["horizon"] + MC_DRAWS_PER_SAMPLE * s["n_samples"],
        setup_configs=_mc_configs, validate=_mc_validate),
]}
