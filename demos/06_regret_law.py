"""The abstract's two-term regret law, fitted from runs.

Each agent's dynamic regret is bounded by a term linear in T, from the
gradient estimate, plus a sublinear function of T times the path length of
the minimizer sequence.  The paper stream's minimizer barely moves, so its
regret is all initial transient.  Here a custom stream keeps the paper
stream's coefficients but moves the minimizer along m(t) = sin(omega t), so
the path length P_T grows with omega and with T.

The step size depends on t alone, so the first T steps of a run are the run
of horizon T: one run per omega gives every T of the grid.
"""
import math
import warnings

import numpy as np

from rgfopt import ObjectiveStream, RunConfig, build_regret_ledger, run
from rgfopt.analysis import path_length
from rgfopt.oracle import paper_objective_stream

OMEGAS = (0.0, 0.01, 0.03, 0.1)
HORIZONS = (500, 1000, 2000, 4000)


def sine_stream(n_agents: int, omega: float) -> ObjectiveStream:
    """The paper stream's costs a_i x^2 - 2 b_i m x + c_i m^2 (dim 1), with
    minimizer m(t) = sin(omega t) in place of the paper's target."""
    params = paper_objective_stream(n_agents).params
    a, b, c = (np.array(params[k]) for k in "abc")

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        # reads x during the call only: a stream that keeps a point must copy it
        v, m = float(x[0]), math.sin(omega * t)
        return a[agent] * v * v - 2.0 * b[agent] * m * v + c[agent] * m * m

    def aggregate_evaluate(t, points: np.ndarray) -> np.ndarray:
        m, v = np.sin(omega * np.asarray(t, dtype=float)), points[:, 0]
        return a.sum() * v * v - 2.0 * b.sum() * m * v + c.sum() * m * m

    return ObjectiveStream(
        n_agents=n_agents, dim=1, evaluate=evaluate, aggregate_evaluate=aggregate_evaluate,
        analytic_minimizer=lambda t: np.array([math.sin(omega * t)]))


def regret_and_path(omega: float, horizons) -> list[tuple[float, float]]:
    """(mean regret over agents, minimizer path length) at each T of
    `horizons`, from one run of the longest horizon."""
    config = RunConfig(horizon=max(horizons), record_surplus=False, record_oracle=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # gain above certified bound
        trace = run(config, stream=sine_stream(config.n_agents, omega))
    ledger = build_regret_ledger(trace)
    return [(float(ledger.regret_curve[t].mean()), path_length(trace.x_star[:t + 1]))
            for t in horizons]


def least_squares(columns: list[np.ndarray], y: np.ndarray):
    """Coefficients, their standard errors and R^2 of y ~ sum_k coef_k columns_k."""
    X = np.column_stack(columns)
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    rss = float(((X @ coef - y) ** 2).sum())
    cov = rss / (len(y) - X.shape[1]) * np.linalg.inv(X.T @ X)
    return coef, np.sqrt(np.diag(cov)), 1.0 - rss / float(((y - y.mean()) ** 2).sum())


if __name__ == "__main__":
    rows = [(omega, T, *rp) for omega in OMEGAS
            for T, rp in zip(HORIZONS, regret_and_path(omega, HORIZONS))]

    print("=== mean dynamic regret (1/N) sum_i R_i(T), N = 10, mu_hat = 1e-4 ===")
    print(f"{'omega':>6} {'P_T at T=' + str(HORIZONS[-1]):>14}"
          + "".join(f" {'T=' + str(T):>9}" for T in HORIZONS))
    for omega in OMEGAS:
        mine = [r for r in rows if r[0] == omega]
        print(f"{omega:>6} {mine[-1][3]:>14.1f}" + "".join(f" {r[2]:>9.0f}" for r in mine))

    T, regret, path = (np.array([r[k] for r in rows]) for k in (1, 2, 3))
    root = np.sqrt(T)
    print("\n=== least-squares fits of mean regret over the grid ===")
    for name, cols, labels in [
            ("with the path term", [T, root * path, root], ["a (T)", "b (sqrt(T) P_T)", "c (sqrt(T))"]),
            ("without it", [T, root], ["a (T)", "c (sqrt(T))"])]:
        coef, se, r2 = least_squares(cols, regret)
        terms = ", ".join(f"{lab} = {v:.3g} +- {s:.2g}" for lab, v, s in zip(labels, coef, se))
        print(f"{name:>18}: {terms}; R^2 = {r2:.3f}")
    print("\nThe path term carries the fit. At fixed omega, P_T grows about linearly")
    print("in T, so a is collinear with b: its value and standard error say how")
    print("well the grid pins it, not that a linear term was measured.")
