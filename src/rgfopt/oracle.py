"""Objective streams revealed by point evaluation, and the randomized
two-point gradient estimator built on Gaussian smoothing.

The estimator for a local cost f at point x with smoothing mu and random
direction xi is

    g = (f(x + mu * xi) - f(x)) / mu * xi,

which is an unbiased estimate of the gradient of the Gaussian-smoothed
surrogate f_mu when xi is standard normal.  A uniform-on-the-sphere
direction law is provided as well, but the smoothing identities are only
exact for the Gaussian law, which is the default.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ObjectiveStream",
    "OracleConfig",
    "OracleError",
    "sample_direction",
    "gradient_free_oracle",
    "smoothed_value_mc_stats",
    "tracking_target",
    "paper_objective_stream",
    "linear_probe_stream",
    "constant_stream",
    "norm_stream",
    "make_stream",
    "STREAM_REGISTRY",
]

# Sub-stream domains under one master seed.  Directions advance the
# spawn key by (agent, t) so a draw is a pure function of the triple.
_DOMAIN_DIRECTION = 1
_DOMAIN_COEFF = 2

# A direction is the draw of np.random.default_rng(np.random.SeedSequence(
# entropy=rng_seed, spawn_key=(_DOMAIN_DIRECTION, agent, t))).  Building those
# two objects costs more than the draw itself, so the key-to-state map is
# computed here in Python ints instead: SeedSequence's uint32 hashing
# (numpy/random/bit_generator.pyx) followed by PCG64's seeding arithmetic
# (pcg64.h).  Only the resulting state is handed to numpy.
_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _generate_state_constants() -> tuple[tuple[int, int], ...]:
    # generate_state(4, uint64) hashes 8 pool words with a multiplier that
    # advances the same way whatever the data: (xor constant, multiplier).
    pairs, hc = [], _INIT_B
    for _ in range(2 * _POOL_SIZE):
        nxt = hc * _MULT_B & _M32
        pairs.append((hc, nxt))
        hc = nxt
    return tuple(pairs)


_STATE_HASH = _generate_state_constants()
_thread_rng = threading.local()


class OracleError(RuntimeError):
    """Evaluation failure in the gradient-free oracle."""


@dataclass(frozen=True)
class ObjectiveStream:
    """Family of per-agent convex costs, revealed only through evaluation.

    `evaluate(agent, t, x)` must be side-effect-free and convex in x for
    every agent and time (contract, enforced by construction for the built-in
    streams).  No gradient is ever exposed.  `subgradient_bound(rho)`, when
    given, bounds every agent's subgradient norm over points of norm <= rho.

    Optional hooks speed up batch work without changing semantics:
    `evaluate_batch(agent, t, X)` maps an (m, p) block of points to (m,)
    values; `aggregate_evaluate(t, X)` returns the summed-over-agents cost
    at each row of X.
    """

    n_agents: int
    dim: int
    evaluate: Callable[[int, int, np.ndarray], float]
    analytic_minimizer: Callable[[int], np.ndarray] | None = None
    subgradient_bound: Callable[[float], float] | None = None
    evaluate_batch: Callable[[int, int, np.ndarray], np.ndarray] | None = None
    aggregate_evaluate: Callable[[int, np.ndarray], np.ndarray] | None = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def aggregate_cost(self, t: int, points: np.ndarray) -> np.ndarray:
        """Summed cost over all agents at each row of `points` (m, p) -> (m,)."""
        points = np.atleast_2d(points)
        if self.aggregate_evaluate is not None:
            return np.asarray(self.aggregate_evaluate(t, points), dtype=float)
        out = np.zeros(points.shape[0])
        for k in range(points.shape[0]):
            out[k] = sum(self.evaluate(j, t, points[k]) for j in range(self.n_agents))
        return out


@dataclass(frozen=True)
class OracleConfig:
    """Per-agent smoothing parameters plus the direction sampling law."""

    mu: np.ndarray
    dim: int
    direction_law: str = "gaussian"
    rng_seed: int = 0

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if (mu <= 0).any():
            raise ValueError("all smoothing parameters must be positive")
        if self.direction_law not in ("gaussian", "uniform_sphere"):
            raise ValueError(f"unknown direction law {self.direction_law!r}")
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {seed!r}")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)

    @property
    def mu_hat(self) -> float:
        return float(self.mu.max())

    @classmethod
    def uniform(cls, n_agents: int, mu_hat: float, dim: int,
                direction_law: str = "gaussian", rng_seed: int = 0) -> "OracleConfig":
        return cls(mu=np.full(n_agents, float(mu_hat)), dim=dim,
                   direction_law=direction_law, rng_seed=rng_seed)


def _uint32_words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer, split as
    SeedSequence splits entropy and spawn keys (0 is one word)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(value: int, hc: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed value and the advanced multiplier."""
    value ^= hc
    hc = hc * _MULT_A & _M32
    value = value * hc & _M32
    return value ^ (value >> 16), hc


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _absorb(pool: tuple[int, ...], hc: int, words: list[int]) -> tuple[tuple[int, ...], int]:
    """Mix entropy words beyond the pool size into every pool word."""
    pool = list(pool)
    for word in words:
        for i in range(_POOL_SIZE):
            h, hc = _hashmix(word, hc)
            pool[i] = _mix(pool[i], h)
    return tuple(pool), hc


@functools.lru_cache(maxsize=4096)
def _direction_prefix(seed: int, agent: int) -> tuple[tuple[int, ...], int]:
    """Pool and hash multiplier of SeedSequence(seed, spawn_key=(1, agent,
    ...)) once every word before t has been mixed in."""
    entropy = _uint32_words(seed)
    # with a spawn key, short run entropy is zero-padded to the pool size
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hc, pool = _INIT_A, []
    for word in entropy[:_POOL_SIZE]:
        h, hc = _hashmix(word, hc)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], h)
    rest = entropy[_POOL_SIZE:] + [_DOMAIN_DIRECTION] + _uint32_words(agent)
    return _absorb(tuple(pool), hc, rest)


def _keyed_generator(seed: int, agent: int, t: int) -> np.random.Generator:
    """This thread's generator, set to the PCG64 state that
    default_rng(SeedSequence(seed, spawn_key=(1, agent, t))) starts from."""
    # index() first, so a float key cannot hit the cache entry of an int
    prefix = _direction_prefix(operator.index(seed), operator.index(agent))
    pool, _ = _absorb(*prefix, _uint32_words(t))
    s = []
    for k, (pre, post) in enumerate(_STATE_HASH):  # generate_state(4, uint64)
        v = (pool[k % _POOL_SIZE] ^ pre) * post & _M32
        s.append(v ^ (v >> 16))
    # uint64 words w_j = s[2j] | s[2j+1] << 32; PCG64 seeds with
    # initstate = w0 << 64 | w1 and initseq = w2 << 64 | w3
    initstate = s[0] << 64 | s[1] << 96 | s[2] | s[3] << 32
    initseq = s[4] << 64 | s[5] << 96 | s[6] | s[7] << 32
    inc = (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _M128
    rng = getattr(_thread_rng, "generator", None)
    if rng is None:
        rng = _thread_rng.generator = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def sample_direction(cfg: OracleConfig, agent: int, t: int) -> np.ndarray:
    """Random direction for (agent, t): i.i.d. standard normal coordinates
    under the gaussian law, or a unit vector uniform on the sphere.

    A direction is a pure function of (rng_seed, agent, t), bit-identical to
    the draw of np.random.default_rng(np.random.SeedSequence(entropy=rng_seed,
    spawn_key=(1, agent, t))), so draws do not depend on call order or thread
    and equal seeds reproduce identical directions.  Negative agent or t
    raise ValueError.
    """
    rng = _keyed_generator(cfg.rng_seed, agent, t)
    xi = rng.standard_normal(cfg.dim)
    if cfg.direction_law == "uniform_sphere":
        norm = np.linalg.norm(xi)
        while norm == 0.0:  # probability-zero guard
            xi = rng.standard_normal(cfg.dim)
            norm = np.linalg.norm(xi)
        xi = xi / norm
    return xi


def gradient_free_oracle(stream: ObjectiveStream, cfg: OracleConfig,
                         agent: int, t: int, x: np.ndarray) -> np.ndarray:
    """Two-point gradient estimate; makes exactly two stream evaluations."""
    x = np.asarray(x, dtype=float)
    mu = float(cfg.mu[agent])
    xi = sample_direction(cfg, agent, t)
    f_shift = stream.evaluate(agent, t, x + mu * xi)
    f_base = stream.evaluate(agent, t, x)
    if not (math.isfinite(f_shift) and math.isfinite(f_base)):
        raise OracleError(
            f"non-finite objective value for agent {agent} at t={t}: "
            f"f(x+mu*xi)={f_shift!r}, f(x)={f_base!r}")
    return (f_shift - f_base) / mu * xi


def smoothed_value_mc_stats(stream: ObjectiveStream, agent: int, t: int,
                            x: np.ndarray, mu: float, n_samples: int,
                            seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Gaussian-smoothed value and its standard error.

    Returns (mean of f(x + mu * xi_k), sample std / sqrt(n)).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_samples, x.size))
    points = x[None, :] + mu * xi
    if stream.evaluate_batch is not None:
        vals = np.asarray(stream.evaluate_batch(agent, t, points), dtype=float)
    else:
        vals = np.array([stream.evaluate(agent, t, points[k]) for k in range(n_samples)])
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return float(vals.mean()), stderr


def tracking_target(t: float) -> float:
    """Reference signal 2*sin(0.008 t)/t, extended continuously to 0.016 at t=0."""
    if t == 0:
        return 0.016
    return 2.0 * math.sin(0.008 * t) / t


def paper_objective_stream(n_agents: int, dim: int = 1, coeff_seed: int = 0) -> ObjectiveStream:
    """Time-varying quadratic tracking stream.

    Agent i at time t pays a_i ||x||^2 - 2 b_i d(t) sum(x) + c_i p d(t)^2 with
    d = tracking_target.  Coefficients are drawn uniform(0.5, 1.5) and then
    rescaled so each of sum(a), sum(b), sum(c) equals N exactly, which makes
    the aggregate cost N * ||x - d(t) 1||^2 with minimizer d(t) 1, interior
    to any feasible set that contains the box [-0.016, 0.016]^p.
    """
    if n_agents < 1:
        raise ValueError(f"need n_agents >= 1, got {n_agents}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=coeff_seed, spawn_key=(_DOMAIN_COEFF,)))
    a = rng.uniform(0.5, 1.5, n_agents)
    b = rng.uniform(0.5, 1.5, n_agents)
    c = rng.uniform(0.5, 1.5, n_agents)
    a *= n_agents / a.sum()
    b *= n_agents / b.sum()
    c *= n_agents / c.sum()
    for arr in (a, b, c):
        arr.flags.writeable = False

    def subgradient_bound(rho: float) -> float:
        # ||2 a_i x - 2 b_i d 1|| <= 2 a_i rho + 2 b_i |d| sqrt(p), |d| <= 0.016
        return float((2.0 * a * rho + 2.0 * b * 0.016 * math.sqrt(dim)).max())

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        d = tracking_target(t)
        x = np.asarray(x, dtype=float)
        return float(a[agent] * x @ x - 2.0 * b[agent] * d * x.sum() + c[agent] * dim * d * d)

    def aggregate_evaluate(t: int, points: np.ndarray) -> np.ndarray:
        d = tracking_target(t)
        return (a.sum() * (points ** 2).sum(axis=1)
                - 2.0 * b.sum() * d * points.sum(axis=1)
                + c.sum() * dim * d * d)

    def analytic_minimizer(t: int) -> np.ndarray:
        return np.full(dim, tracking_target(t))

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        analytic_minimizer=analytic_minimizer, subgradient_bound=subgradient_bound,
        aggregate_evaluate=aggregate_evaluate, name="paper_quadratic",
        params={"coeff_seed": coeff_seed, "a": a.tolist(), "b": b.tolist(), "c": c.tolist()},
    )


def linear_probe_stream(n_agents: int, dim: int = 1, seed: int = 0,
                        scale: float = 1.0) -> ObjectiveStream:
    """Per-agent linear costs <u_i, x> with seeded unit directions times scale.

    The two-point estimator is exact on linear functions, which makes this
    stream a sharp probe for oracle identities.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_COEFF,)))
    u = rng.standard_normal((n_agents, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= scale
    u.flags.writeable = False

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        return float(u[agent] @ np.asarray(x, dtype=float))

    def aggregate_evaluate(t: int, points: np.ndarray) -> np.ndarray:
        return points @ u.sum(axis=0)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        subgradient_bound=lambda rho: float(scale), aggregate_evaluate=aggregate_evaluate,
        name="linear_probe", params={"seed": seed, "scale": scale},
    )


def constant_stream(n_agents: int, dim: int = 1, value: float = 0.0) -> ObjectiveStream:
    """Constant costs; the oracle is exactly zero, leaving pure consensus."""

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        return float(value)

    def aggregate_evaluate(t: int, points: np.ndarray) -> np.ndarray:
        return np.full(points.shape[0], float(value) * n_agents)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        subgradient_bound=lambda rho: 0.0, aggregate_evaluate=aggregate_evaluate,
        name="constant", params={"value": value},
    )


def norm_stream(n_agents: int, dim: int = 1, scale: float = 1.0) -> ObjectiveStream:
    """Euclidean-norm costs scale * ||x||: convex, scale-Lipschitz, kinked at 0."""

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        return float(scale * np.linalg.norm(np.asarray(x, dtype=float)))

    def evaluate_batch(agent: int, t: int, points: np.ndarray) -> np.ndarray:
        return scale * np.linalg.norm(points, axis=1)

    def analytic_minimizer(t: int) -> np.ndarray:
        return np.zeros(dim)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        analytic_minimizer=analytic_minimizer, subgradient_bound=lambda rho: float(scale),
        evaluate_batch=evaluate_batch, name="norm", params={"scale": scale},
    )


STREAM_REGISTRY: dict[str, Callable[..., ObjectiveStream]] = {
    "paper_quadratic": lambda n, dim, seed, **kw: paper_objective_stream(n, dim, coeff_seed=seed, **kw),
    "linear_probe": lambda n, dim, seed, **kw: linear_probe_stream(n, dim, seed=seed, **kw),
    "constant": lambda n, dim, seed, **kw: constant_stream(n, dim, **kw),
}


def make_stream(name: str, n_agents: int, dim: int, seed: int, **kwargs) -> ObjectiveStream:
    """Instantiate a registered stream by name."""
    try:
        factory = STREAM_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown stream {name!r}; registered: {sorted(STREAM_REGISTRY)}") from None
    return factory(n_agents, dim, seed, **kwargs)
