"""Objective streams revealed by point evaluation, and the randomized
two-point gradient estimator built on Gaussian smoothing.

The estimator for a local cost f at point x with smoothing mu and random
direction xi is

    g = (f(x + mu * xi) - f(x)) / mu * xi,

which is an unbiased estimate of the gradient of the Gaussian-smoothed
surrogate f_mu when xi is standard normal.  Every direction is one such
Gaussian row.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# Sub-stream domains under one master seed: the run's initial points,
# directions and stream coefficients.  Directions advance the spawn key by
# (agent, t) so a draw is a pure function of the triple.
_DOMAIN_INIT = 0
_DOMAIN_DIRECTION = 1
_DOMAIN_COEFF = 2

# A direction is the draw of np.random.default_rng(np.random.SeedSequence(
# entropy=rng_seed, spawn_key=(_DOMAIN_DIRECTION, agent, t))).  Building those
# two objects per key costs more than the draw itself, so a block of keys
# takes the pool of SeedSequence(rng_seed, spawn_key=(_DOMAIN_DIRECTION,))
# from numpy and finishes the key-to-state map on uint64 arrays:
# SeedSequence's uint32 hashing of the agent and t words
# (numpy/random/bit_generator.pyx), then PCG64's seeding arithmetic (pcg64.h).
_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class OracleError(RuntimeError):
    """Evaluation failure in the gradient-free oracle."""


@dataclass(frozen=True)
class ObjectiveStream:
    """Family of per-agent convex costs, revealed only through evaluation.

    `evaluate(agent, t, x)` must be side-effect-free and convex in x for
    every agent and time (contract, enforced by construction for the built-in
    streams).  No gradient is ever exposed.  The point passed to `evaluate`
    is valid only during the call: at dim 1 the estimator writes its
    estimate into the shifted point's array, so a stream that keeps a point
    must copy it.  `subgradient_bound(rho)`, when given, bounds every
    agent's subgradient norm over points of norm <= rho.

    The optional hook `aggregate_evaluate(t, X)` speeds up batch work
    without changing semantics: it returns the summed-over-agents cost at
    each row of X, where `t` is one time for every row or an int array
    holding one time per row.
    """

    n_agents: int
    dim: int
    evaluate: Callable[[int, int, np.ndarray], float]
    analytic_minimizer: Callable[[int], np.ndarray] | None = None
    subgradient_bound: Callable[[float], float] | None = None
    aggregate_evaluate: Callable[[int, np.ndarray], np.ndarray] | None = None
    params: dict = field(default_factory=dict)

    def aggregate_cost(self, t, points: np.ndarray) -> np.ndarray:
        """Summed cost over all agents at each row of `points` (m, p) -> (m,),
        at time `t` (an int) or at times `t[k]` (an (m,) int array)."""
        points = np.atleast_2d(points)
        if self.aggregate_evaluate is not None:
            return np.asarray(self.aggregate_evaluate(t, points), dtype=float)
        out = np.zeros(points.shape[0])
        for k, tk in enumerate(np.broadcast_to(t, out.shape).tolist()):
            out[k] = sum(self.evaluate(j, tk, points[k]) for j in range(self.n_agents))
        return out


def _finite_real(v) -> bool:
    """Whether v is a real number, not a bool, that float() holds as a finite
    value; an int beyond float range is not."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class OracleConfig:
    """One positive, finite smoothing gain mu for agents 0..n_agents-1 (the
    regret bound reads per-agent gains only through their maximum)."""

    n_agents: int
    mu: float
    dim: int
    rng_seed: int = 0

    def __post_init__(self):
        mu = self.mu
        if not (_finite_real(mu) and mu > 0.0):
            raise ValueError(f"smoothing parameter mu must be a positive, finite float, got {mu!r}")
        for name, low in (("n_agents", 1), ("dim", 1), ("rng_seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        object.__setattr__(self, "mu", float(mu))
        object.__setattr__(self, "n_agents", int(self.n_agents))
        object.__setattr__(self, "dim", int(self.dim))


def _hashmix(value: np.ndarray, hc: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on uint64 arrays holding uint32 values: the
    hashed value and the multiplier advanced by `mult`."""
    value = value ^ hc
    hc = hc * mult & _M32
    value = value * hc & _M32
    return value ^ (value >> 16), hc


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _absorb(pool: tuple[np.ndarray, ...], hc: int, words: list[np.ndarray]) -> list[np.ndarray]:
    """Mix entropy words beyond the pool size into every pool word."""
    pool = list(pool)
    for word in words:
        for i in range(_POOL_SIZE):
            h, hc = _hashmix(word, hc)
            pool[i] = _mix(pool[i], h)
    return pool


def _state_words(pool: list[np.ndarray]) -> list[np.ndarray]:
    """The 8 uint32 words of generate_state(4, uint64) from an absorbed pool."""
    words, hc = [], _INIT_B
    for k in range(2 * _POOL_SIZE):
        word, hc = _hashmix(pool[k % _POOL_SIZE], hc, _MULT_B)
        words.append(word)
    return words


# Block draws redo numpy's route on uint64 arrays: the SeedSequence absorb
# of one-word agents and times, PCG64 seeding and steps on (hi, lo) halves
# with XSL-RR output, and the fast path of numpy's double ziggurat (Marsaglia &
# Tsang 2000; numpy/random/src/distributions/distributions.c), whose tables
# _ziggurat_tables reads off numpy at the first block.
_M64 = (1 << 64) - 1
_MULT_HI, _MULT_LO = _PCG64_MULT >> 64, _PCG64_MULT & _M64
_BLOCK_KEYS = 2048  # keys per block draw: all agents over max(1, 2048 // N) times
_memo = threading.local()  # this thread's last block: (cfg, n_agents, t0, t1, rows)


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """state * MULT + inc mod 2^128 on uint64 halves; the high word of
    lo * MULT_LO is formed from 32-bit limbs."""
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _MULT_LO & _M32, _MULT_LO >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    mulhi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    prod_lo = lo * _MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = mulhi + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < prod_lo)
    return new_hi, new_lo


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's double ziggurat tables (ki, wi), read-only, read off a private
    Generator(PCG64) whose next output is placed at r = rabs << 9 | idx.
    rabs = 1 draws wi[idx]; ki[idx] is the least rabs whose draw takes a
    second output, from idx 2 on guessed as round(wi[idx-1] / wi[idx] * 2^52)
    and kept if fast at ki - 1 and slow at ki, else found by bisection."""
    gen = np.random.Generator(np.random.PCG64(0))
    mult_inv = pow(_PCG64_MULT, -1, 1 << 128)

    def draw(idx: int, rabs: int) -> tuple[float, bool]:
        r = rabs << 9 | idx  # one LCG step inverted; high word 0 outputs the low word
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": (r - 1) * mult_inv % (1 << 128), "inc": 1}}
        return gen.standard_normal(), gen.bit_generator.state["state"]["state"] != r

    wi = [draw(idx, 1)[0] for idx in range(256)]
    ki = []
    for idx in range(256):
        k = round(wi[idx - 1] / wi[idx] * 2**52) if idx >= 2 else 0
        bracket = k and draw(idx, k)[1] and not draw(idx, k - 1)[1]
        lo, hi = (k, k) if bracket else (0, 1 << 52)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if draw(idx, mid)[1] else (mid + 1, hi)
        ki.append(lo)
    tables = np.array(ki, dtype=np.uint64), np.array(wi)
    for table in tables:
        table.flags.writeable = False
    return tables


def _direction_block(seed: int, dim: int, n_agents: int, t0: int, t1: int) -> np.ndarray:
    """Standard normal directions of agents 0..n_agents-1 at times t0..t1-1
    (n_agents, t1 <= 2^32), row (t - t0) * n_agents + agent, bit-identical to
    numpy's route.

    Keys whose draw leaves the ziggurat fast path are drawn by a numpy
    generator set to the key's seeded PCG64 state.
    """
    ki, wi = _ziggurat_tables()
    pool = np.random.SeedSequence(seed, spawn_key=(_DOMAIN_DIRECTION,)).pool
    # the pool has taken max(4, words of seed) entropy words and the domain
    # word, four hashmix steps per word
    words = max(_POOL_SIZE, -(-int(seed).bit_length() // 32)) + 1
    hc = _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 1 << 32) & _M32
    agents = np.arange(n_agents, dtype=np.uint64)
    t = np.arange(t0, t1, dtype=np.uint64)[:, None]
    s = _state_words(_absorb(tuple(pool.astype(np.uint64)[:, None]), hc, [agents, t]))
    # PCG64 seeding: inc = initseq << 1 | 1 and
    # state = (initstate + inc) * MULT + inc, in (hi, lo) halves
    seq_hi, seq_lo = s[4] | s[5] << 32, s[6] | s[7] << 32
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = (s[2] | s[3] << 32) + inc_lo
    hi = (s[0] | s[1] << 32) + inc_hi + (lo < inc_lo)
    hi, lo = seeded = _pcg64_step(hi, lo, inc_hi, inc_lo)
    draws, fast = [], True
    for _ in range(dim):  # one output per coordinate on the fast path
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        rot = hi >> 58
        x = hi ^ lo
        r = (x >> rot) | (x << ((64 - rot) & 63))  # XSL-RR
        idx = (r & 0xFF).astype(np.intp)
        rabs = (r >> 9) & ((1 << 52) - 1)
        fast = fast & (rabs < ki[idx])
        v = rabs.astype(np.float64) * wi[idx]
        draws.append(np.where((r >> 8) & 1, -v, v))  # sign bit
    rows = np.stack(draws, axis=-1).reshape(-1, dim)
    slow = np.flatnonzero(~np.ravel(fast))
    if slow.size:
        rng = np.random.Generator(np.random.PCG64(0))
        halves = [np.ravel(a)[slow].tolist() for a in (*seeded, inc_hi, inc_lo)]
        for k, s_hi, s_lo, i_hi, i_lo in zip(slow.tolist(), *halves):
            rng.bit_generator.state = {
                "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}
            rows[k] = rng.standard_normal(dim)
    return rows


def sample_direction(cfg: OracleConfig, agent: int, t: int) -> np.ndarray:
    """Random direction for (agent, t): i.i.d. standard normal coordinates.

    A direction is a pure function of (rng_seed, agent, t), bit-identical to
    the draw of np.random.default_rng(np.random.SeedSequence(entropy=rng_seed,
    spawn_key=(1, agent, t))), so draws do not depend on call order, batching
    or thread, and equal seeds reproduce identical directions.  A key outside
    agents 0..cfg.n_agents-1 or times 0..2^32-1 raises ValueError, a
    non-integer one TypeError.  Every key is served from a block that holds
    every agent over the aligned max(1, 2048 // cfg.n_agents) times around t;
    this thread keeps its last block, keyed by the cfg object.
    """
    c, n, t0, t1, rows = getattr(_memo, "block", (None,) * 5)
    if c is cfg and t0 <= t < t1 and 0 <= agent < n:
        return rows[(t - t0) * n + agent].copy()  # a non-integer key raises TypeError
    agent, t, n = operator.index(agent), operator.index(t), cfg.n_agents
    if not (0 <= agent < n and 0 <= t < 1 << 32):
        raise ValueError(f"direction key (agent={agent}, t={t}) is outside agents 0..{n - 1} "
                         f"and times 0..{(1 << 32) - 1}")
    step = max(1, _BLOCK_KEYS // n)
    t0 = t - t % step
    t1 = min(t0 + step, 1 << 32)
    # a list of row views: indexing it is cheaper than indexing the array
    rows = list(_direction_block(cfg.rng_seed, cfg.dim, n, t0, t1))
    _memo.block = (cfg, n, t0, t1, rows)
    return rows[(t - t0) * n + agent].copy()


def gradient_free_oracle(stream: ObjectiveStream, cfg: OracleConfig,
                         agent: int, t: int, x: np.ndarray) -> np.ndarray:
    """Two-point gradient estimate; makes exactly two stream evaluations.

    `x` must have shape (cfg.dim,).  At dim 1 the shift and the scale run on
    Python floats, with the IEEE operations of the numpy route in its order.
    An agent outside 0..cfg.n_agents-1 raises ValueError before any evaluation.
    """
    dim = cfg.dim
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"oracle point for agent {agent} at t={t} has shape {x.shape}, "
                         f"expected ({dim},) for dim {dim}")
    mu = cfg.mu
    xi = sample_direction(cfg, agent, t)
    # sample_direction returns a fresh array: at dim 1 it holds the shifted
    # point while it is evaluated, and the estimate after
    if dim == 1:
        xi0 = xi.item()
        xi[0] = x.item() + mu * xi0
        f_shift = stream.evaluate(agent, t, xi)
    else:
        f_shift = stream.evaluate(agent, t, x + mu * xi)
    f_base = stream.evaluate(agent, t, x)
    diff = f_shift - f_base
    # a difference is finite only if both values are
    if not math.isfinite(diff) and not (math.isfinite(f_shift) and math.isfinite(f_base)):
        raise OracleError(
            f"non-finite objective value for agent {agent} at t={t}: "
            f"f(x+mu*xi)={f_shift!r}, f(x)={f_base!r}")
    if dim == 1:
        xi[0] = xi0 * (diff / mu)
    else:
        xi *= diff / mu
    return xi


def smoothed_value_mc_stats(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                            mu: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Gaussian-smoothed value f_mu(x) = E f(x + mu xi)
    and its standard error: (mean of f(x + mu * xi_k), sample std / sqrt(n)).

    `f` maps an (m, p) block of points to (m,) values; it is called once, on
    all n_samples points.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_samples, x.size))
    vals = np.asarray(f(x[None, :] + mu * xi), dtype=float)
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
    # per agent (a_i, 2 b_i, c_i p): the leading products of the formula's
    # left-to-right terms, so holding them keeps every bit
    coeffs = tuple(zip(a.tolist(), (2.0 * b).tolist(), (c * dim).tolist()))

    def subgradient_bound(rho: float) -> float:
        # ||2 a_i x - 2 b_i d 1|| <= 2 a_i rho + 2 b_i |d| sqrt(p), |d| <= 0.016
        return float((2.0 * a * rho + 2.0 * b * 0.016 * math.sqrt(dim)).max())

    # (t, d(t)) of the last time evaluated, shared by both evaluations of a
    # draw; the tuple is replaced whole, so no thread reads a torn pair
    last = [(None, 0.0)]

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        s, d = last[0]
        if s != t:
            d = tracking_target(t)
            last[0] = (t, d)
        a_i, b2_i, cp_i = coeffs[agent]
        if dim == 1:
            # the bits of the p >= 2 formula: a one-element dot is the rounded
            # product and a one-element np.add.reduce is the element itself; at
            # p >= 2 numpy's dot uses fused multiply-adds that floats cannot redo
            v = np.asarray(x, dtype=float).item()
            return a_i * v * v - b2_i * d * v + cp_i * d * d
        # (a_i x).x - 2 b_i d sum(x) + c_i p d^2 in this operation order, on
        # Python floats; np.add.reduce is what x.sum() runs, .dot what `@` runs
        x = np.asarray(x, dtype=float)
        return float((a_i * x).dot(x)) - b2_i * d * float(np.add.reduce(x)) + cp_i * d * d

    def aggregate_evaluate(t, points: np.ndarray) -> np.ndarray:
        # d by math.sin once per distinct time; np.sin may differ in the last bit
        times, rows = np.unique(t, return_inverse=True)
        d = np.array([tracking_target(s) for s in times.tolist()])[rows]
        return (a.sum() * (points ** 2).sum(axis=1)
                - 2.0 * b.sum() * d * points.sum(axis=1)
                + c.sum() * dim * d * d)

    def analytic_minimizer(t: int) -> np.ndarray:
        return np.array([tracking_target(t)] * dim)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        analytic_minimizer=analytic_minimizer, subgradient_bound=subgradient_bound,
        aggregate_evaluate=aggregate_evaluate,
        params={"coeff_seed": coeff_seed, "a": a.tolist(), "b": b.tolist(), "c": c.tolist()},
    )


def linear_probe_stream(n_agents: int, dim: int = 1, seed: int = 0) -> ObjectiveStream:
    """Per-agent linear costs <u_i, x> with seeded unit directions u_i.

    The two-point estimator is exact on linear functions, which makes this
    stream a sharp probe for oracle identities.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_COEFF,)))
    u = rng.standard_normal((n_agents, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u.flags.writeable = False

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        return float(u[agent] @ np.asarray(x, dtype=float))

    def aggregate_evaluate(t: int, points: np.ndarray) -> np.ndarray:
        # a stacked row dot rounds each row alike, however many rows are passed
        return (points[:, None, :] @ u.sum(axis=0)[:, None])[:, 0, 0]

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate, params={"seed": seed},
        subgradient_bound=lambda rho: 1.0, aggregate_evaluate=aggregate_evaluate,
    )


def constant_stream(n_agents: int, dim: int = 1) -> ObjectiveStream:
    """Zero costs; the oracle is exactly zero, leaving pure consensus."""

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        return 0.0

    def aggregate_evaluate(t: int, points: np.ndarray) -> np.ndarray:
        return np.zeros(points.shape[0])

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        subgradient_bound=lambda rho: 0.0, aggregate_evaluate=aggregate_evaluate,
    )


def norm_stream(n_agents: int, dim: int = 1) -> ObjectiveStream:
    """Euclidean-norm costs ||x||: convex, 1-Lipschitz, kinked at 0."""

    def evaluate(agent: int, t: int, x: np.ndarray) -> float:
        # what np.linalg.norm computes for a 1-D input: sqrt of the dot
        x = np.asarray(x, dtype=float).ravel()
        return math.sqrt(x.dot(x))

    def analytic_minimizer(t: int) -> np.ndarray:
        return np.zeros(dim)

    return ObjectiveStream(
        n_agents=n_agents, dim=dim, evaluate=evaluate,
        analytic_minimizer=analytic_minimizer, subgradient_bound=lambda rho: 1.0,
    )


STREAM_REGISTRY: dict[str, Callable[[int, int, int], ObjectiveStream]] = {
    "paper_quadratic": lambda n, dim, seed: paper_objective_stream(n, dim, coeff_seed=seed),
    "linear_probe": lambda n, dim, seed: linear_probe_stream(n, dim, seed=seed),
    "constant": lambda n, dim, seed: constant_stream(n, dim),
}


def make_stream(name: str, n_agents: int, dim: int, seed: int) -> ObjectiveStream:
    """Instantiate a registered stream by name."""
    try:
        factory = STREAM_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown stream {name!r}; registered: {sorted(STREAM_REGISTRY)}") from None
    return factory(n_agents, dim, seed)
