"""Regret, path-length, consensus, and spectral diagnostics over traces.

Everything here is a pure function of recorded runs; nothing mutates a
trace.  Dynamic regret for agent i over horizon T is the cumulative summed
cost of playing x^i(t) minus the cumulative cost of the per-step offline
optimum x*(t).  The regret upper bound mirrors the known structure

    (T+1) sqrt(p) N mu_hat D + c1 + (2 N rho omega_T / gamma0 + c2) sqrt(T+1)

with existential constants replaced by labeled, fitted stand-ins; it is a
reporting device, not a pass/fail test.  The spectral constants (C, lambda)
come from `algorithm.gain_fit`, the one place the power-gap series of the
augmented matrix is computed and fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algorithm import Trace, gain_fit
from .graph import WeightPair, delta_hat

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-9  # final bracket width of the numeric minimizer fallback
DELTA_GRID = (0.01, 0.05, 0.1, 0.2)  # default gains of the spectral reports
_UNRECORDED = "trace has no residual recording; rerun with record_oracle=True"


@dataclass
class RegretLedger:
    """Per-agent cumulative costs and dynamic regret with supporting curves."""

    offline_cost: float                # sum_t f^t(x*(t))
    regret: np.ndarray                 # (N,)
    regret_curve: np.ndarray           # (T+1, N) prefix regret R_i(t)
    path_length_value: float           # omega_T of the minimizer sequence
    minimizer_source: str              # "analytic" | "numeric"

    def time_averaged(self, t: int) -> np.ndarray:
        """R_i(t)/t for t >= 1."""
        if t < 1:
            raise ValueError("time-averaged regret needs t >= 1")
        return self.regret_curve[t] / t


def _minimizer_sequence(trace: Trace) -> tuple[np.ndarray, str]:
    """The comparator of the ledger and of the bound's path term: the
    minimizers run() recorded, else a numeric search over the box."""
    if trace.x_star is not None:
        return trace.x_star, "analytic"
    if trace.stream.dim != 1:
        raise ValueError("numeric minimizer fallback is implemented for 1-D streams only")
    cfg = trace.config
    if cfg.feasible_kind != "box":
        raise ValueError("numeric minimizer fallback requires a box feasible set")
    # golden-section search on the box for every t at once, one aggregate_cost
    # call per step on both interior points, until the bracket is _GOLDEN_TOL wide
    lo, hi = float(cfg.feasible_lo), float(cfg.feasible_hi)
    a, b = np.full(trace.horizon + 1, lo), np.full(trace.horizon + 1, hi)
    ts = np.tile(np.arange(a.size), 2)
    for _ in range(max(0, math.ceil(math.log(_GOLDEN_TOL / (hi - lo), _INV_PHI)))):
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        f = trace.stream.aggregate_cost(ts, np.concatenate([c, d])[:, None])
        if not np.isfinite(f).all():
            t = int(ts[~np.isfinite(f)].min())
            raise RuntimeError(f"offline minimization failed at t={t}: non-finite cost")
        left = f[:a.size] < f[a.size:]
        a, b = np.where(left, a, c), np.where(left, d, b)
    return ((a + b) / 2)[:, None], "numeric"


def build_regret_ledger(trace: Trace) -> RegretLedger:
    """Dynamic regret R_i(t) of every agent against the per-step offline optimum.

    The costs are those of `trace.stream`, the stream the run played on.
    The optimum is taken over the run's feasible set, so a minimizer
    sequence that leaves that set raises ValueError naming the first such t.
    """
    minimizers, source = _minimizer_sequence(trace)
    feasible = trace.config.feasible_set()
    if not feasible.contains(minimizers):
        t = next(t for t, m in enumerate(minimizers) if not feasible.contains(m))
        raise ValueError(f"the {source} minimizer at t={t}, {minimizers[t].tolist()}, lies "
                         f"outside the feasible set; the regret ledger needs the minimum over it")
    offline_per_t = trace.stream.aggregate_cost(np.arange(trace.horizon + 1), minimizers)
    inst_gap = trace.cost - offline_per_t[:, None]          # (T+1, N)
    regret_curve = np.cumsum(inst_gap, axis=0)
    return RegretLedger(
        offline_cost=float(offline_per_t.sum()),
        regret=regret_curve[-1].copy(),
        regret_curve=regret_curve,
        path_length_value=path_length(minimizers),
        minimizer_source=source,
    )


def path_length(minimizers: np.ndarray) -> float:
    """Total movement sum_t ||x*(t+1) - x*(t)|| over consecutive recorded pairs."""
    minimizers = np.atleast_2d(np.asarray(minimizers, dtype=float))
    if minimizers.shape[0] < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(minimizers, axis=0), axis=1).sum())


def consensus_curve(trace: Trace) -> np.ndarray | None:
    """Disagreement against the augmented mean, (T+1,) max_i ||x^i - stacked
    mean||, or None when the trace recorded no surpluses.  The spread against
    the agent mean is `trace.spread`."""
    if trace.y is None:
        return None
    x = trace.x
    phi_bar = (x.sum(axis=1) + trace.y.sum(axis=1)) / trace.n_agents   # (T+1, p)
    return np.linalg.norm(x - phi_bar[:, None, :], axis=2).max(axis=1)


@dataclass(frozen=True)
class BoundInputs:
    """Measured and fitted quantities feeding the regret upper bound."""

    n_agents: int
    dim: int
    rho: float                 # radius of the feasible set
    subgradient_bound: float   # D
    mu_hat: float
    gamma0: float
    lambda_fit: float
    c_fit: float
    g1_fit: float              # ceiling of Theta(t)/gamma(t)
    horizon: int
    path_length_value: float
    g2_fit: float              # ceiling of (Theta(t)/gamma(t))^2
    g3_fit: float              # ceiling of sum_i ||g^i(t)|| Theta(t)/gamma(t)

    def __post_init__(self):
        positives = {
            "n_agents": self.n_agents, "dim": self.dim, "rho": self.rho,
            "subgradient_bound": self.subgradient_bound, "mu_hat": self.mu_hat,
            "gamma0": self.gamma0, "lambda_fit": self.lambda_fit,
            "c_fit": self.c_fit, "g1_fit": self.g1_fit, "horizon": self.horizon,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.path_length_value < 0:
            raise ValueError("path length cannot be negative")
        if not self.lambda_fit < 1.0:
            raise ValueError(f"lambda_fit must be below 1, got {self.lambda_fit}")


@dataclass
class BoundBreakdown:
    """Regret upper bound with each assembled term and stand-in labeled."""

    total: float
    linear_term: float          # (T+1) sqrt(p) N mu_hat D
    c1: float
    c2: float
    path_term: float            # 2 N rho omega_T / gamma0 * sqrt(T+1)
    sqrt_term: float            # c2 sqrt(T+1)
    stand_ins: dict = field(default_factory=dict)


def regret_bound_rhs(inputs: BoundInputs) -> BoundBreakdown:
    """Evaluate the dynamic-regret upper bound with fitted stand-ins.

    Stand-ins (labeled in the result): G1, G2 and G3 are the measured
    ceilings of the inputs; nu_hat is 2 rho^2 (the worst squared
    half-distance inside the set);
    the smoothed-gradient Lipschitz constant is sqrt(p) D / mu_hat.
    """
    n, p = inputs.n_agents, inputs.dim
    rho, d_bound = inputs.rho, inputs.subgradient_bound
    mu_hat, gamma0 = inputs.mu_hat, inputs.gamma0
    lam = inputs.lambda_fit
    c_hat = max(inputs.c_fit, 1.0)
    g1, g2, g3 = inputs.g1_fit, inputs.g2_fit, inputs.g3_fit
    nu_hat = 2.0 * rho ** 2
    l_hat = math.sqrt(p) * d_bound / mu_hat
    t1 = inputs.horizon + 1

    linear_term = t1 * math.sqrt(p) * n * mu_hat * d_bound
    c1 = gamma0 * (2 * n * rho * g1 * c_hat
                   + 4 * n ** 2 * rho ** 2 * l_hat * c_hat
                   + 2 * (p + 5) * n ** 2 * rho * d_bound * c_hat) / (1.0 - lam)
    c2 = (n * nu_hat / gamma0
          + gamma0 * (p + 4) ** 2 * n * d_bound ** 2
          + 2 * gamma0 * g2 * c_hat
          + 2 * gamma0 * g3 * c_hat
          + gamma0 * (2 * g2 * c_hat
                      + 4 * n * rho * l_hat * g1 * c_hat
                      + 2 * (p + 5) * n * d_bound * g1 * c_hat) / (1.0 - lam))
    path_term = 2.0 * n * rho * inputs.path_length_value / gamma0 * math.sqrt(t1)
    sqrt_term = c2 * math.sqrt(t1)
    total = linear_term + c1 + path_term + sqrt_term
    return BoundBreakdown(
        total=total, linear_term=linear_term, c1=c1, c2=c2,
        path_term=path_term, sqrt_term=sqrt_term,
        stand_ins={
            "G1": ("measured Theta/gamma ceiling", g1),
            "G2": ("measured", g2),
            "G3": ("measured", g3),
            "nu_hat": ("2 rho^2", nu_hat),
            "L_hat": ("sqrt(p) D / mu_hat", l_hat),
            "C_hat": ("max(C_fit, 1)", c_hat),
            "lambda": ("fitted decay rate", lam),
        },
    )


@dataclass
class SpectralRow:
    """One gain value's convergence diagnostics; the fit fields are None on an error row."""

    delta: float
    delta_hat_value: float
    c_fit: float | None = None
    lambda_fit: float | None = None
    r_squared: float | None = None
    geometric: bool = False
    gap_first: float | None = None
    gap_last: float | None = None
    error: str | None = None


def spectral_report(wp: WeightPair, delta_grid) -> list[SpectralRow]:
    """Power-convergence diagnostics of the augmented matrix per gain value.

    Each row fits gap(t) ~ C lambda^t over t = 5..200 and flags whether the
    decay is geometric: fitted rate below 1 and the end of the series below
    its start.  Failures are reported per row, not raised.
    """
    rows = []
    dh = delta_hat(wp)
    for d in delta_grid:
        row = SpectralRow(delta=float(d), delta_hat_value=dh)
        try:
            if not 0 < d < math.inf:
                raise ValueError("delta must be positive" if d <= 0 else "delta must be finite")
            gaps, row.c_fit, row.lambda_fit, row.r_squared = gain_fit(wp, row.delta, 200)
            row.geometric = bool(0.0 < row.lambda_fit < 1.0 and gaps[-1] < gaps[4])
            row.gap_first, row.gap_last = float(gaps[0]), float(gaps[-1])
        except Exception as exc:
            row = SpectralRow(delta=row.delta, delta_hat_value=dh, error=str(exc))
        rows.append(row)
    return rows


def theta_over_gamma(trace: Trace) -> np.ndarray:
    """Per-step ratio Theta(t)/gamma(t); requires residual recording."""
    if trace.theta is None:
        raise ValueError(_UNRECORDED)
    big_theta = np.linalg.norm(trace.theta, axis=2).sum(axis=1)
    return big_theta / trace.gamma


def fit_constants_from_trace(trace: Trace) -> BoundInputs:
    """Assemble bound inputs from a recorded run: spectral fit at the run's
    gain on the weight pair it mixed with, plus measured residual ceilings.
    The subgradient bound comes from `trace.stream` when it declares one,
    evaluated at the radius of the configured feasible set, else from the
    largest observed oracle norm (a valid empirical proxy).  The path length
    is that of the regret ledger's comparator."""
    if trace.horizon < 1:
        raise ValueError(f"fitting bound constants needs horizon >= 1, got horizon={trace.horizon}")
    if trace.g_norm is None:
        raise ValueError(_UNRECORDED)
    ratio = theta_over_gamma(trace)
    cfg = trace.config
    _, c_fit, lam_fit, _ = gain_fit(trace.weights, cfg.delta, 200)
    lam_fit = min(lam_fit, 1.0 - 1e-9)
    rho = cfg.feasible_set().radius
    bound = trace.stream.subgradient_bound
    d_bound = float(bound(rho)) if bound is not None else 0.0
    if not d_bound:
        d_bound = float(trace.g_norm.max())
    return BoundInputs(
        n_agents=cfg.n_agents, dim=cfg.dim, rho=rho,
        subgradient_bound=d_bound,
        mu_hat=cfg.mu_hat, gamma0=cfg.gamma0,
        lambda_fit=lam_fit, c_fit=c_fit, g1_fit=float(ratio.max()),
        horizon=trace.horizon,
        path_length_value=path_length(_minimizer_sequence(trace)[0]),
        g2_fit=float((ratio ** 2).max()),
        g3_fit=float((trace.g_norm.sum(axis=1) * ratio).max()),
    )
