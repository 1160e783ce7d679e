"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line (visible with `pytest -s` and in failure output).

Shared fixtures: the pinned-seed tracking run (seed 0, T=5000) backs
criteria 6, 7, 9, 10, 11 and 12.

Criterion 2 is implemented exactly as parameterized and is expected to
fail; it is kept red deliberately rather than weakened.  Two independent
effects block it: (a) the conservative gain formula evaluates to ~8e-34
for ten agents, and at that gain the coupled matrix powers are numerically
identical to the zero-gain case, whose limit differs from the target limit
(the decision-to-surplus block carries no mass), so the measured gap
plateaus near 1 instead of decaying; (b) on one-way cycles the dominant
modes are complex, the infinity-norm gap oscillates as they rotate, and
the per-step ratio exceeds 0.999 somewhere in [20, 200] at every gain,
including gains with fast overall decay.  The geometric-decay substance is
verified instead through envelope and fit checks in test_graph.py.
"""

import math
import time
import warnings

import numpy as np
import pytest

import rgfopt as r
from rgfopt.algorithm import fit_geometric_decay
from rgfopt.analysis import fit_constants_from_trace, regret_bound_rhs, theta_over_gamma
from rgfopt.experiments import (
    MOMENT_DIMS,
    SANDWICH_POINTS,
    UNBIASED_DIM,
    UNBIASED_POINTS,
    experiment_fig2_3,
    experiment_fig4,
    sandwich_table,
    second_moment_check,
    unbiasedness_check,
)
from rgfopt.graph import (
    build_augmented,
    delta_hat,
    equal_neighbor_weights,
    make_cycle,
    make_random_strongly_connected,
    matrix_power_gap_series,
)
from rgfopt.oracle import tracking_target

from conftest import SV_SEED, report_criterion

STOCH_TOL = 1e-12
IDENTITY_TOL = 1e-10


def test_criterion_01_stochasticity_invariants():
    t0 = time.time()
    graphs = {
        "cycle_10": make_cycle(10),
        "random_10": make_random_strongly_connected(10, 0.3, seed=7),
        "cycle_50": make_cycle(50),
        "cycle_100": make_cycle(100),
        "cycle_200": make_cycle(200),
    }
    worst = 0.0
    for g in graphs.values():
        wp = equal_neighbor_weights(g)
        worst = max(worst, float(np.abs(wp.w_row.sum(axis=1) - 1.0).max()))
        worst = max(worst, float(np.abs(wp.w_col.sum(axis=0) - 1.0).max()))
        am = build_augmented(wp, 0.1)
        worst = max(worst, float(np.abs(am.w_aug.sum(axis=0) - 1.0).max()))
    elapsed = time.time() - t0
    ok = worst < STOCH_TOL and elapsed < 1.0
    report_criterion(1, "row/column sums of W_r, W_c, W(delta) equal 1 within 1e-12",
                     ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_geometric_decay_at_conservative_gain():
    wp = equal_neighbor_weights(make_cycle(10))
    dh = delta_hat(wp)
    delta = min(0.1, 0.9 * dh)
    gaps = matrix_power_gap_series(build_augmented(wp, delta), 201)
    ratios = gaps[20:200] / gaps[19:199]          # gap(t+1)/gap(t), t in [20, 199]
    _, lam_fit, r2 = fit_geometric_decay(gaps, 20, 200)
    ratio_ok = bool((ratios <= 0.999).all())
    fit_ok = 0.0 < lam_fit < 1.0 and r2 >= 0.98
    ok = ratio_ok and fit_ok
    report_criterion(
        2, "gap ratio <= 0.999 on [20,200] and log-linear fit with R^2 >= 0.98 "
           "at delta = min(0.1, 0.9*delta_hat)",
        ok, f"delta={delta:.2e}, max ratio={ratios.max():.4f}, "
            f"lambda={lam_fit:.4f}, R^2={r2:.4f}")
    assert ok


def test_criterion_03_smoothing_sandwich():
    rows = sandwich_table(n_samples=100_000, seed=2024)
    ok = len(rows) == SANDWICH_POINTS and all(row["within"] for row in rows)
    n_inside = sum(row["within"] for row in rows)
    report_criterion(3, f"f <= smoothed estimate <= f + sqrt(p) mu D within 3 sigma "
                        f"at {SANDWICH_POINTS} points, 1e5 samples", ok,
                     f"{n_inside}/{SANDWICH_POINTS} inside band")
    assert ok


def test_criterion_04_oracle_unbiasedness():
    rows = unbiasedness_check(n_draws=100_000, seed=11)
    ok = len(rows) == UNBIASED_POINTS and all(row["within_4_sigma"] for row in rows)
    worst = max(row["max_sigmas"] for row in rows)
    report_criterion(4, f"oracle mean within 4 sigma of finite-difference smoothed "
                        f"gradient at {UNBIASED_POINTS} points in R^{UNBIASED_DIM}", ok,
                     f"worst {worst:.2f} sigma")
    assert ok


def test_criterion_05_second_moment_ceiling():
    rows = second_moment_check(n_draws=100_000, seed=5)
    ok = [row["dim"] for row in rows] == list(MOMENT_DIMS) and all(row["within"] for row in rows)
    detail = ", ".join(f"p={row['dim']}: {row['mean_norm_sq']:.2f}<={row['ceiling']:.0f}"
                       for row in rows)
    dims = ",".join(map(str, MOMENT_DIMS))
    report_criterion(5, f"mean ||g||^2 <= (p+4)^2 D^2 for p in {{{dims}}}", ok, detail)
    assert ok


def test_criterion_06_tracking_reproduction(sv_trace):
    trace = sv_trace
    target = tracking_target(5000)
    spread_ok = trace.spread[5000] < trace.spread[100]
    final_err = float(np.abs(trace.x[5000, :, 0] - target).max())
    track_ok = final_err < 0.1
    ok = spread_ok and track_ok
    report_criterion(6, "spread shrinks from t=100 to t=5000 and every trajectory "
                        "ends within 0.1 of the moving optimum",
                     ok, f"spread {trace.spread[100]:.2e}->{trace.spread[5000]:.2e}, "
                         f"max final error {final_err:.2e}")
    assert ok


def test_criterion_07_time_averaged_regret_decay(sv_ledger):
    ledger = sv_ledger
    ta_500 = ledger.time_averaged(500)
    ta_5000 = ledger.time_averaged(5000)
    halved = bool((ta_5000 < 0.5 * ta_500).all())
    positive = bool((ledger.regret_curve[1:] > 0.0).all())
    ok = halved and positive
    report_criterion(7, "per-agent R(T)/T at T=5000 below half its T=500 value, "
                        "positive throughout",
                     ok, f"max ratio {(ta_5000 / ta_500).max():.3f}")
    assert ok


@pytest.fixture(scope="module")
def fig4_full(tmp_path_factory):
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = experiment_fig4(seed=SV_SEED, agent_counts=(10, 50, 100, 200),
                              horizon=5000, out_dir=tmp_path_factory.mktemp("fig4"))
    return res, time.time() - t0


def test_criterion_08_regret_grows_with_network_size(fig4_full):
    res, elapsed = fig4_full
    vals = [res.final_values[n] for n in (10, 50, 100, 200)]
    violations = [(a, b) for a, b in zip(vals, vals[1:]) if b < a]
    ok = len(violations) == 0 or (len(violations) == 1
                                  and violations[0][1] >= 0.95 * violations[0][0])
    report_criterion(8, "mean time-averaged regret at T=5000 nondecreasing in N "
                        "(one adjacent tie within 5% allowed)",
                     ok, "finals " + ", ".join(f"{v:.3f}" for v in vals)
                         + f", {elapsed:.0f}s")
    assert ok and elapsed < 600.0


def test_network_sweep_curves_descend_final_decade(fig4_full):
    # companion to criterion 8 (pilot-fixture property, not a numbered
    # criterion): every mean time-averaged regret curve keeps descending
    res, _ = fig4_full
    for n, curve in res.mean_time_avg.items():
        assert curve[-1] < curve[499], f"N={n} curve stopped descending"


def test_criterion_09_conservation_and_residual_bound(sv_trace):
    trace = sv_trace
    n = trace.n_agents
    stacked = trace.x.sum(axis=1) + trace.y.sum(axis=1)
    lhs = (stacked[1:] - stacked[:-1]) / n
    rhs = trace.theta.sum(axis=1) / n
    conservation_err = float(np.abs(lhs - rhs).max())
    theta_norm = np.linalg.norm(trace.theta, axis=2)
    y_norm = np.linalg.norm(trace.y[:-1], axis=2)
    bound = trace.gamma[:, None] * trace.g_norm + 2.0 * trace.config.delta * y_norm
    bound_violation = float((theta_norm - bound).max())
    ok = conservation_err < IDENTITY_TOL and bound_violation < IDENTITY_TOL
    report_criterion(9, "stacked-mean conservation and per-step residual bound "
                        "hold to 1e-10 at every step",
                     ok, f"conservation {conservation_err:.1e}, "
                         f"bound slack {bound_violation:.1e}")
    assert ok


def test_criterion_10_residual_ratio_boundedness(sv_trace):
    ratio = theta_over_gamma(sv_trace)
    window = ratio[10:]                          # t in [10, 5000)
    finite = bool(np.isfinite(window).all())
    running_max = np.maximum.accumulate(window)
    idx_500 = 500 - 10
    span = float(running_max[-1] / running_max[idx_500])
    ok = finite and span < 2.0
    report_criterion(10, "Theta(t)/gamma(t) ceiling finite and its running max "
                         "varies by < 2x over the final decade",
                     ok, f"max {window.max():.2f}, span {span:.3f}")
    assert ok


def test_criterion_11_regret_bound_dominates(sv_trace, sv_ledger):
    inputs = fit_constants_from_trace(sv_trace)
    breakdown = regret_bound_rhs(inputs)
    ok = bool((sv_ledger.regret <= breakdown.total).all())
    report_criterion(11, "measured regret below the assembled upper bound for "
                         "every agent",
                     ok, f"bound {breakdown.total:.2e} vs max measured "
                         f"{sv_ledger.regret.max():.2e}")
    assert ok


def test_criterion_12_byte_level_determinism(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        first = experiment_fig2_3(seed=SV_SEED, horizon=5000, out_dir=tmp_path / "a")
        second = experiment_fig2_3(seed=SV_SEED, horizon=5000, out_dir=tmp_path / "b")
    same = all(
        first.paths[key].read_bytes() == second.paths[key].read_bytes()
        for key in ("trajectories", "regret", "consensus", "metadata")
    )
    report_criterion(12, "re-running the tracking experiment with the same seed "
                         "reproduces identical artifact bytes", same)
    assert same
