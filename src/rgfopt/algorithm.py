"""Per-step update law for all agents, with projections, the run
configuration, and the deterministic run loop.  `run()` is the one entry to the
round, `_advance`, which it calls once per step on plain (N, p) arrays.

Each agent keeps a decision x^i constrained to a convex compact set and a
free surplus y^i.  One synchronous round, given mixing matrices (W_r row-
stochastic, W_c column-stochastic), gain delta, and step size gamma:

    x^i+ = project( sum_j W_r[i,j] x^j + delta y^i - gamma g^i )
    y^i+ = sum_j W_c[i,j] y^j - sum_j W_r[i,j] x^j + x^i - delta y^i

where g^i is the two-point gradient estimate of agent i's local cost at
x^i.  All reads are from the time-t snapshot; writes land at t+1.

Stacking phi = (x^1..x^N, y^1..y^N), the same round is phi+ = W phi + theta
with W the augmented matrix and theta^i the projection residual (zero on
surplus rows).  Because W is column-stochastic, the stacked mean obeys
mean(phi+) - mean(phi) = (1/N) sum_i theta^i exactly.  The runner does not
check this identity; the test of acceptance criterion 9 does.
"""

from __future__ import annotations

import gc
import math
import numbers
import os
import signal
import threading
import warnings as _warnings
from dataclasses import dataclass, field, asdict, fields
from itertools import chain, repeat

import numpy as np

from .graph import (
    Digraph,
    WeightPair,
    build_augmented,
    delta_hat,
    equal_neighbor_weights,
    make_complete,
    make_cycle,
    make_random_strongly_connected,
    make_ring,
    matrix_power_gap_series,
)
from .oracle import (
    STREAM_REGISTRY,
    ObjectiveStream,
    OracleConfig,
    _DOMAIN_INIT,
    _finite_real,
    gradient_free_oracle,
    make_stream,
)


class ConfigError(ValueError):
    """Run configuration fails validation."""


class SimulationError(RuntimeError):
    """Numerical failure during a run, with agent/time context."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi]^dim."""

    lo: float
    hi: float
    dim: int = 1

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError(f"box needs lo < hi, got [{self.lo}, {self.hi}]")

    def project(self, v: np.ndarray) -> np.ndarray:
        # np.clip's bits without its wrappers.  The bound goes first: on a tie
        # np.maximum/np.minimum return their second argument, and np.clip
        # keeps v (-0.0 against a bound of 0.0).
        return np.minimum(self.hi, np.maximum(self.lo, v))

    def contains(self, v: np.ndarray) -> bool:
        return bool((v >= self.lo - 1e-12).all() and (v <= self.hi + 1e-12).all())

    @property
    def radius(self) -> float:
        """sup over the box of the Euclidean norm."""
        return max(abs(self.lo), abs(self.hi)) * math.sqrt(self.dim)

    def sample_uniform(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, shape)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of given radius centred at the origin of R^dim."""

    ball_radius: float
    dim: int = 1

    def __post_init__(self):
        if self.ball_radius <= 0:
            raise ConfigError(f"ball radius must be positive, got {self.ball_radius}")

    @np.errstate(over="ignore", invalid="ignore")  # overflowing norms are handled below
    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        scale = np.where(norms > self.ball_radius, self.ball_radius / np.maximum(norms, 1e-300), 1.0)
        out = v * scale
        huge = np.isinf(norms[..., 0])
        if huge.any():
            # the norm overflowed: take the point's direction from its
            # infinite coordinates, or from the point scaled by its largest one
            d = v[huge]
            inf = np.isinf(d)
            d = np.where(inf.any(axis=-1, keepdims=True), np.where(inf, np.sign(d), 0.0), d)
            d /= np.abs(d).max(axis=-1, keepdims=True)
            out[huge] = d * (self.ball_radius / np.linalg.norm(d, axis=-1, keepdims=True))
        return out

    def contains(self, v: np.ndarray) -> bool:
        return bool((np.linalg.norm(v, axis=-1) <= self.ball_radius + 1e-9).all())

    @property
    def radius(self) -> float:
        return float(self.ball_radius)

    def sample_uniform(self, rng: np.random.Generator, shape) -> np.ndarray:
        # a uniform direction (a normalized Gaussian row) times a radius
        # r U^(1/p), whose distribution gives the p-ball uniform volume
        xi = rng.standard_normal(shape)
        radii = self.ball_radius * rng.uniform(size=(*shape[:-1], 1)) ** (1.0 / self.dim)
        return xi / np.linalg.norm(xi, axis=-1, keepdims=True) * radii


def _advance(x: np.ndarray, y: np.ndarray, wp: WeightPair, delta: float, gamma_t: float,
             stream: ObjectiveStream, cfg: OracleConfig, t: int, feasible,
             g: np.ndarray, theta: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """run()'s round on plain (N, p) arrays: fills `g` with one oracle estimate per
    agent and, unless None, `theta` with the projection residuals x^i+ - (W_r x)^i
    - delta y^i, in place, and returns the new (x, y)."""
    # g is a C-contiguous (N, p) block, so reshape(-1) is a view of it
    np.concatenate([gradient_free_oracle(stream, cfg, i, t, x_i) for i, x_i in enumerate(x)],
                   out=g.reshape(-1))
    mixed = wp.w_row.dot(x)
    delta_y = delta * y
    x_new = feasible.project(mixed + delta_y - gamma_t * g)
    y_new = wp.w_col.dot(y) - mixed + x - delta_y
    # x . (0 y) is nan when an entry of x or y is not finite, and +-0 otherwise
    if not math.isfinite(x_new.ravel().dot(y_new.ravel() * 0.0)):
        bad = np.where(~(np.isfinite(x_new).all(axis=1) & np.isfinite(y_new).all(axis=1)))[0]
        raise SimulationError(f"non-finite state for agent(s) {bad.tolist()} after step t={t}")
    if theta is not None:
        np.subtract(x_new - mixed, delta_y, out=theta)
    return x_new, y_new


# Field annotation -> (description, check).  Integers accept numpy ints but
# not bools; reals must be finite as floats.
_FIELD_CHECKS = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a finite real", _finite_real),
    "bool": ("a bool", lambda v: isinstance(v, (bool, np.bool_))),
    "str": ("a string", lambda v: isinstance(v, str)),
}


@dataclass(frozen=True)
class RunConfig:
    """Complete, JSON-serializable description of one simulation run, valid once built."""

    n_agents: int = 10
    graph_kind: str = "random"          # cycle | ring | complete | random
    graph_seed: int = 7
    extra_edge_prob: float = 0.3
    weight_rule: str = "equal_neighbor"
    delta: float = 0.1
    mu_hat: float = 1e-4
    direction_law: str = "gaussian"     # gaussian only
    schedule_kind: str = "inv_sqrt"     # inv_sqrt | constant
    gamma0: float = 1.0
    horizon: int = 5000
    feasible_kind: str = "box"          # box | ball
    feasible_lo: float = -5.0
    feasible_hi: float = 5.0
    ball_radius: float = 5.0
    dim: int = 1
    stream_name: str = "paper_quadratic"
    master_seed: int = 0
    record_surplus: bool = True
    record_oracle: bool = True
    check_delta_bound: bool = True

    def __post_init__(self):
        self.validate()

    def to_dict(self) -> dict:
        """The fields as plain Python values (numpy scalars unwrapped), ready for JSON."""
        return {k: v.item() if isinstance(v, np.generic) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object of RunConfig fields, "
                              f"got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def validate(self) -> None:
        for f in fields(self):
            what, check = _FIELD_CHECKS[f.type]
            value = getattr(self, f.name)
            if not check(value):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if self.graph_seed < 0 or self.master_seed < 0:
            raise ConfigError(f"seeds must be >= 0, got graph_seed={self.graph_seed}, "
                              f"master_seed={self.master_seed}")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be >= 0, got {self.horizon}")
        if not 0.0 <= self.extra_edge_prob <= 1.0:
            raise ConfigError(f"extra_edge_prob must be in [0, 1], got {self.extra_edge_prob}")
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.mu_hat <= 0:
            raise ConfigError(f"mu_hat must be positive, got {self.mu_hat}")
        if self.gamma0 <= 0:
            raise ConfigError(f"gamma0 must be positive, got {self.gamma0}")
        if self.n_agents < 2:
            raise ConfigError(f"need at least 2 agents, got {self.n_agents}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if (int(self.horizon) + 1) * int(self.n_agents) * int(self.dim) * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"horizon={self.horizon}, n_agents={self.n_agents} and dim={self.dim} "
                              f"are too large: the float histories exceed numpy's index range")
        if self.graph_kind not in GRAPH_KINDS:
            raise ConfigError(f"unknown graph kind {self.graph_kind!r}")
        if self.weight_rule != "equal_neighbor":
            raise ConfigError(f"unknown weight rule {self.weight_rule!r}")
        if self.schedule_kind not in ("inv_sqrt", "constant"):
            raise ConfigError(f"unknown schedule kind {self.schedule_kind!r}")
        self.feasible_set()
        if self.feasible_kind == "box" and math.isinf(self.feasible_hi - self.feasible_lo):
            raise ConfigError(f"box [{self.feasible_lo}, {self.feasible_hi}] is too wide: "
                              f"feasible_hi - feasible_lo overflows")
        if self.direction_law != "gaussian":
            raise ConfigError(f"direction_law must be 'gaussian', got {self.direction_law!r}")
        if self.stream_name not in STREAM_REGISTRY:
            raise ConfigError(f"unknown stream {self.stream_name!r}; "
                              f"registered: {sorted(STREAM_REGISTRY)}")
        # the step sizes never increase, so the last one is the smallest
        if self.horizon and self.step_size(self.horizon - 1) == 0.0:
            raise ConfigError(f"gamma0={self.gamma0!r} is too small: the {self.schedule_kind} "
                              f"step size rounds to 0.0 by t={self.horizon - 1}")

    def step_size(self, t: int) -> float:
        """gamma(t), positive, non-increasing and non-summable."""
        if self.schedule_kind == "inv_sqrt":
            return self.gamma0 / math.sqrt(t + 1.0)
        return self.gamma0

    def feasible_set(self):
        """The configured feasible set: a box or a ball centred at the origin."""
        if self.feasible_kind == "box":
            return Box(self.feasible_lo, self.feasible_hi, self.dim)
        if self.feasible_kind == "ball":
            return Ball(self.ball_radius, self.dim)
        raise ConfigError(f"unknown feasible kind {self.feasible_kind!r}")


# kind -> constructor(n, seed, extra_edge_prob); each is strongly connected.
GRAPH_KINDS = {
    "cycle": lambda n, seed, prob: make_cycle(n),
    "ring": lambda n, seed, prob: make_ring(n),
    "complete": lambda n, seed, prob: make_complete(n),
    "random": lambda n, seed, prob: make_random_strongly_connected(n, prob, seed),
}


def make_graph(kind: str, n: int, seed: int, extra_edge_prob: float) -> Digraph:
    """The GRAPH_KINDS topology `kind` on n agents; "random" alone reads the last two."""
    return GRAPH_KINDS[kind](n, seed, extra_edge_prob)


def fit_geometric_decay(gaps: np.ndarray, t_start: int, t_end: int):
    """Least-squares fit of log(gap_t) ~ log C + t log lambda over [t_start, t_end].

    `gaps[k]` is the value at power t = k+1.  Returns (C, lambda, r_squared).
    """
    t_end = min(t_end, len(gaps))
    ts = np.arange(t_start, t_end + 1, dtype=float)
    ys = np.log(np.maximum(gaps[t_start - 1:t_end], 1e-300))
    a = np.vstack([ts, np.ones_like(ts)]).T
    coef, residual, *_ = np.linalg.lstsq(a, ys, rcond=None)
    lam = float(np.exp(coef[0]))
    c = float(np.exp(coef[1]))
    if ys.min() == ys.max():  # a flat series; its ss_tot is round-off, not 0.0
        r2 = 1.0
    else:
        ss_res = float(residual[0]) if len(residual) else float(((a @ coef - ys) ** 2).sum())
        r2 = 1.0 - ss_res / float(((ys - ys.mean()) ** 2).sum())
    return c, lam, r2


def gain_fit(wp: WeightPair, delta: float, t_max: int):
    """The power-gap series of W(delta) at t = 1..t_max and its geometric fit
    over t = 5..t_max: (gaps, C, lambda, r_squared).  The one place the series
    is computed and fitted."""
    gaps = matrix_power_gap_series(build_augmented(wp, delta), t_max)
    return (gaps, *fit_geometric_decay(gaps, 5, t_max))


@dataclass
class Trace:
    """Recorded run: decisions, costs, spread, the weight pair its rounds mixed
    with (the edge list is its support), and optional diagnostics.  Arrays are
    indexed by time 0..T for states and 0..T-1 for per-step quantities (gamma,
    oracle norms, residuals)."""

    config: RunConfig
    x: np.ndarray                      # (T+1, N, p)
    cost: np.ndarray                   # (T+1, N) summed cost at each agent's decision
    spread: np.ndarray                 # (T+1,) max_i ||x^i - mean x||
    gamma: np.ndarray                  # (T,)
    stream: ObjectiveStream            # the stream the run played on
    x_star: np.ndarray | None = None   # (T+1, p)
    y: np.ndarray | None = None        # (T+1, N, p)
    g_norm: np.ndarray | None = None   # (T, N)
    theta: np.ndarray | None = None    # (T, N, p)
    weights: WeightPair | None = None  # the (W_r, W_c) pair run() mixed with
    delta_hat_value: float = float("nan")
    lambda_fit: float | None = None
    c_fit: float | None = None
    warnings: list = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.x.shape[0] - 1

    @property
    def n_agents(self) -> int:
        return self.x.shape[1]

    def metadata(self) -> dict:
        """Seed-and-config closure for a bit-for-bit rerun; a non-finite fit is None."""
        def finite(v):
            return v if v is not None and math.isfinite(v) else None
        return {
            "config": self.config.to_dict(),
            "graph_edges": np.argwhere(self.weights.w_row.T > 0).tolist(),
            "delta_hat": self.delta_hat_value,
            "lambda_fit": finite(self.lambda_fit),
            "c_fit": finite(self.c_fit),
            "warnings": list(self.warnings),
        }

    def to_csv_text(self) -> str:
        """Long-format CSV: t, agent, x..., global_cost, spread, x_star..."""
        steps, n, p = self.x.shape
        header = (["t", "agent"] + [f"x_{k}" for k in range(p)]
                  + ["global_cost", "spread"])
        x = self.x.reshape(-1, p)
        columns = [np.repeat(np.arange(steps), n), np.tile(np.arange(n), steps),
                   *(x[:, k] for k in range(p)), self.cost.ravel(), np.repeat(self.spread, n)]
        if self.x_star is not None:
            header += [f"x_star_{k}" for k in range(p)]
            columns += [np.repeat(self.x_star[:, k], n) for k in range(p)]
        return csv_text(header, columns)


# Rows formatted per pass: whole columns at once would hold every cell
# string of a 50k-row table in memory.
_CSV_CHUNK_ROWS = 4096


def _cells(col):
    """Cell strings of one chunk of a column.  A value repeated over
    consecutive rows (t, spread, x_star in the long tables) is formatted
    once per run when the runs are at most half the rows; floats compare by
    their bits, because -0.0 == 0.0 prints differently."""
    if not isinstance(col, np.ndarray):
        return map(str, col)
    kind = col.dtype.kind
    fmt = repr if kind == "f" else str
    if kind not in "biuf" or col.itemsize > 8:
        return map(fmt, col.tolist())
    keys = col.view(f"u{col.itemsize}") if kind == "f" else col
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    if 2 * starts.size > col.size:
        return map(fmt, col.tolist())
    counts = np.diff(starts, append=col.size)
    return chain.from_iterable(map(repeat, map(fmt, col[starts].tolist()), counts.tolist()))


def _csv_rows(columns, start: int, stop: int) -> list[str]:
    """Text of rows start..stop-1, one string per chunk from a chunk boundary."""
    parts = []
    for a in range(start, stop, _CSV_CHUNK_ROWS):
        cells = [_cells(col[a:a + _CSV_CHUNK_ROWS]) for col in columns]
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return parts


def _forked_rows(columns, mid: int, n_rows: int) -> list[str] | None:
    """_csv_rows(columns, 0, n_rows), with rows mid.. formatted meanwhile by a
    forked child that sends them down a pipe after their byte count.  If the
    child fails, the parent formats them too; None if fork() fails."""
    r, w = os.pipe()
    try:
        # Measured on a 2-vCPU Linux VM: OpenBLAS stops its worker at fork (2 -> 1
        # OS threads) and restarts it on the next threaded BLAS call, about +0.9 ms
        # once.  Python >= 3.12 warns about fork() only for threads still alive,
        # and csv_text forks only when no other Python thread is.
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            gc.disable()  # no finalizer of an inherited object runs twice
            os.close(r)
            data = "".join(_csv_rows(columns, mid, n_rows)).encode()
            with open(w, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little") + data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            parts = _csv_rows(columns, 0, mid)
            raw = pipe.read()
        # decoded while the child exits
        rest = raw[8:].decode() if int.from_bytes(raw[:8], "little") == len(raw) - 8 else None
        try:
            ok = os.waitpid(pid, 0)[1] == 0
        except ChildProcessError:
            ok = False
        pid = 0
    finally:
        if pid:  # the parent raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return parts + ([rest] if ok and rest is not None else _csv_rows(columns, mid, n_rows))


def csv_text(header: list[str], columns) -> str:
    """CSV from equal-length columns.  Float arrays are written as their
    shortest round-trip repr, so identical values produce identical bytes;
    other cells (ints, strings, Python floats in a list) through `str`.
    From 4 chunks on, a forked child formats the second half of the rows if
    this process may use 2 CPUs and has one Python thread; same bytes."""
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError(f"CSV columns differ in length: {[len(col) for col in columns]}")
    parts = None
    if (n_rows >= 4 * _CSV_CHUNK_ROWS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1):
        parts = _forked_rows(columns, n_rows // (2 * _CSV_CHUNK_ROWS) * _CSV_CHUNK_ROWS, n_rows)
    return "".join([",".join(header) + "\n", *(parts or _csv_rows(columns, 0, n_rows))])


def run(config: RunConfig, stream: ObjectiveStream | None = None) -> Trace:
    """Execute the update law for t = 0..T-1 and record the trajectory.

    Deterministic for a given config: topology, coefficients, initial
    decisions, and oracle directions all derive from the recorded seeds.
    A delta above the conservative spectral bound (or above the fitted
    practical ceiling) triggers a warning, never an abort.
    """
    n, p, t_end = config.n_agents, config.dim, config.horizon
    # the histories come first, so an oversized run fails before any array is filled
    x_hist = np.empty((t_end + 1, n, p))
    y_hist = np.empty((t_end + 1, n, p)) if config.record_surplus else None
    g_hist = np.empty((t_end, n, p)) if config.record_oracle else None
    theta_hist = np.empty((t_end, n, p)) if config.record_oracle else None
    gamma_hist = np.array([config.step_size(t) for t in range(t_end)], dtype=float)

    wp = equal_neighbor_weights(make_graph(config.graph_kind, n, config.graph_seed,
                                           config.extra_edge_prob))

    if stream is None:
        stream = make_stream(config.stream_name, config.n_agents, config.dim, config.master_seed)
    if stream.n_agents != config.n_agents or stream.dim != config.dim:
        raise ConfigError("stream shape does not match config")

    feasible = config.feasible_set()
    cfg = OracleConfig(config.n_agents, config.mu_hat, config.dim, rng_seed=config.master_seed)

    dh = delta_hat(wp)
    run_warnings = []
    lam_fit = c_fit = None
    if config.check_delta_bound:
        _, c_fit, lam_fit, _ = gain_fit(wp, config.delta, 120)
        # the practical ceiling (1 - lambda) / (2 sqrt(3) N C lambda) of the fitted decay
        practical = 0.0
        if 0.0 < lam_fit < 1.0 and c_fit > 0.0:
            practical = (1.0 - lam_fit) / (2.0 * math.sqrt(3.0) * config.n_agents * c_fit * lam_fit)
        ceiling = min(dh, practical)
        if config.delta > ceiling:
            msg = (f"delta={config.delta:g} exceeds the guaranteed gain ceiling "
                   f"min(delta_hat={dh:.3e}, fitted={practical:.3e}); "
                   f"convergence is not certified at this gain")
            run_warnings.append(msg)
            _warnings.warn(msg, RuntimeWarning, stacklevel=2)
        if not lam_fit < 1.0:
            rate = ("they overflow, so no rate fits" if math.isnan(lam_fit)
                    else f"fitted rate {lam_fit:.4f} >= 1")
            msg = (f"augmented matrix powers diverge at delta={config.delta:g} "
                   f"({rate}); surplus coupling is unstable on this topology")
            run_warnings.append(msg)
            _warnings.warn(msg, RuntimeWarning, stacklevel=2)

    rng_init = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(_DOMAIN_INIT,)))
    x, y = feasible.sample_uniform(rng_init, (n, p)), np.zeros((n, p))

    # unrecorded estimates go to one scratch row, reused every step
    g_rows = repeat(np.empty((n, p))) if g_hist is None else iter(g_hist)
    theta_rows = repeat(None) if theta_hist is None else iter(theta_hist)

    x_hist[0] = x
    if y_hist is not None:
        y_hist[0] = y
    for t, (gamma_t, g_t, theta_t) in enumerate(zip(gamma_hist.tolist(), g_rows, theta_rows)):
        try:
            x, y = _advance(x, y, wp, config.delta, gamma_t, stream, cfg, t, feasible, g_t, theta_t)
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"step failed at t={t}: {exc}") from exc
        x_hist[t + 1] = x
        if y_hist is not None:
            y_hist[t + 1] = y

    # everything that is not state is computed once, after the loop
    ts = np.repeat(np.arange(t_end + 1), n)
    cost = stream.aggregate_cost(ts, x_hist.reshape(-1, p)).reshape(t_end + 1, n)
    x_star = None if stream.analytic_minimizer is None else np.array(
        [stream.analytic_minimizer(t) for t in range(t_end + 1)], dtype=float).reshape(-1, p)
    g_norm = np.linalg.norm(g_hist, axis=2) if g_hist is not None else None
    spread = np.linalg.norm(x_hist - x_hist.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    return Trace(
        config=config, x=x_hist, cost=cost, spread=spread, gamma=gamma_hist, stream=stream,
        x_star=x_star, y=y_hist, g_norm=g_norm, theta=theta_hist,
        weights=wp, delta_hat_value=dh,
        lambda_fit=lam_fit, c_fit=c_fit, warnings=run_warnings,
    )
