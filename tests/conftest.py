import ctypes
import dataclasses
import functools
import glob
import os
import sys
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

import rgfopt as r
from rgfopt import oracle

# Pinned master seed for the reproduction runs; every threshold frozen in
# the acceptance tests was verified against this seed.
SV_SEED = 0


@pytest.fixture(scope="session")
def sv_trace():
    """Full-horizon tracking run (10 agents, random digraph, T=5000)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return r.run(r.RunConfig(horizon=5000, master_seed=SV_SEED))


@pytest.fixture(scope="session")
def sv_ledger(sv_trace):
    return r.build_regret_ledger(sv_trace)


def reference_direction(seed, agent, t, dim):
    """The numpy route that sample_direction reproduces bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, agent, t)))
    return rng.standard_normal(dim)


# Array routes that share only the direction blocks with run(): each stream's
# cost as one numpy formula over rows, the two-point estimates of many rows at
# once, and run()'s round on them.

def _row_dots(a, b):
    """Row k's a[k] . b[k]: a stacked matmul has each row's 1-D dot bits."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def stream_rows(name, stream):
    """`name`'s cost as one numpy formula over rows: values(agents, ts, X)
    -> (K,), row k with the bits of stream.evaluate(agents[k], ts[k], X[k]).
    `name` is a registered stream, "norm" (norm_stream) or "quadratic_norm"
    (experiments.quadratic_norm_stream); `ts` may be one time for all rows."""
    if name == "paper_quadratic":
        a, b, c = (np.array(stream.params[k]) for k in "abc")

        def values(agents, ts, X):
            d = np.array([oracle.tracking_target(t) for t in np.broadcast_to(ts, len(X)).tolist()])
            return (_row_dots(a[agents][:, None] * X, X) - 2.0 * b[agents] * d
                    * np.add.reduce(X, axis=1) + c[agents] * stream.dim * d * d)
    elif name == "linear_probe":
        u = np.array([[stream.evaluate(i, 0, e) for e in np.eye(stream.dim)]
                      for i in range(stream.n_agents)])
        values = lambda agents, ts, X: _row_dots(u[agents], X)
    else:
        values = {"constant": lambda agents, ts, X: np.zeros(len(X)),
                  "norm": lambda agents, ts, X: np.sqrt(_row_dots(X, X)),
                  "quadratic_norm": lambda agents, ts, X: _row_dots(X, X)}[name]
    return np.errstate(all="ignore")(values)


@np.errstate(all="ignore")
def array_estimates(values, mu, agents, ts, X, xi):
    """The two-point estimates of rows k = (agents[k], ts[k], X[k]) along
    directions xi[k] at once, in gradient_free_oracle's operation order, from
    a row formula `values` (stream_rows) and the one gain `mu`.
    Raises OracleError where the estimator would, naming the first such row."""
    f_shift, f_base = values(agents, ts, X + mu * xi), values(agents, ts, X)
    bad = np.flatnonzero(~(np.isfinite(f_shift) & np.isfinite(f_base)))
    if bad.size:
        k = bad[0]
        raise oracle.OracleError(f"non-finite objective value for agent {agents[k]} at t={ts[k]}: "
                                 f"f(x+mu*xi)={float(f_shift[k])!r}, f(x)={float(f_base[k])!r}")
    return xi * ((f_shift - f_base)[:, None] / mu)


@functools.lru_cache(maxsize=1)
def _block(seed, dim, n_agents, t0):
    return oracle._direction_block(seed, dim, n_agents, t0,
                                   t0 + max(1, oracle._BLOCK_KEYS // n_agents))


def array_round(x, y, wp, delta, gamma_t, values, cfg, t, feasible, g, theta):
    """run()'s round on arrays, with _advance's signature and the stream's row
    formula `values` (stream_rows) in its place: array_estimates along one
    direction block per max(1, 2048 // N) aligned times, mixing, projection.
    Fills g and theta (unless None) as _advance does, and fails as it does."""
    n = len(x)
    step = max(1, oracle._BLOCK_KEYS // n)
    xi = _block(cfg.rng_seed, cfg.dim, n, t - t % step)[t % step * n:][:n]
    g[...] = array_estimates(values, cfg.mu, np.arange(n), np.full(n, t), x, xi)
    mixed = wp.w_row @ x
    delta_y = delta * y
    x_new = feasible.project(mixed + delta_y - gamma_t * g)
    y_new = wp.w_col @ y - mixed + x - delta_y
    if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()):
        raise r.SimulationError(f"non-finite state after step t={t}")
    if theta is not None:
        theta[...] = (x_new - mixed) - delta_y
    return x_new, y_new


def run_threads(targets, switch_interval, timeout):
    """Run each callable of `targets` on its own thread at the given switch
    interval, join each for up to `timeout` seconds, restore the interval and
    return the threads."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=timeout)
    finally:
        sys.setswitchinterval(old)
    return threads


def edge_set_law(kind: str, n: int, prob: float = 0.3, seed: int = 0) -> set:
    """Each constructor's edge set, self-loops included, written out pair by
    pair; the random kind reads the same generator draws."""
    loops = {(i, i) for i in range(n)}
    successors = {(i, (i + 1) % n) for i in range(n)}
    if kind == "cycle":
        return loops | successors
    if kind == "ring":
        return loops | successors | {(j, i) for i, j in successors}
    if kind == "complete":
        return {(i, j) for i in range(n) for j in range(n)}
    draws = np.random.default_rng(seed).random((n, n))
    return loops | successors | {(i, j) for i in range(n) for j in range(n)
                                 if i != j and draws[i, j] < prob}


@pytest.fixture
def scalar_direction_blocks(monkeypatch):
    """A function that, once called, makes every block draw build its rows
    key by key with reference_direction: the reference for block-served draws."""
    def block(seed, dim, n_agents, t0, t1):
        return np.array([reference_direction(seed, k % n_agents, t0 + k // n_agents, dim)
                         for k in range((t1 - t0) * n_agents)])
    return lambda: monkeypatch.setattr(oracle, "_direction_block", block)


@pytest.fixture
def counted(monkeypatch):
    """A function `install(module, stream)` that counts calls of the
    estimator as `module` resolves it, of `oracle.sample_direction` and of
    the returned copy of `stream`'s `evaluate`.  Direction and evaluation
    calls made outside an estimator call count as strays.  Each install
    starts the counts from zero and wraps a module's estimator only once,
    so one test can count many runs."""
    counts = Counter()
    depth = [0]
    patched = set()
    direction = oracle.sample_direction

    def counted_direction(*args, **kwargs):
        counts["direction" if depth[0] == 1 else "stray"] += 1
        return direction(*args, **kwargs)

    def counted_estimator(estimator):
        def call(*args, **kwargs):
            counts["estimator"] += 1
            depth[0] += 1
            try:
                return estimator(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    def install(module, stream):
        if module not in patched:
            patched.add(module)
            monkeypatch.setattr(module, "gradient_free_oracle",
                                counted_estimator(module.gradient_free_oracle))
        counts.clear()

        def counted_evaluate(*args, **kwargs):
            counts["evaluate" if depth[0] == 1 else "stray"] += 1
            return stream.evaluate(*args, **kwargs)
        return counts, dataclasses.replace(stream, evaluate=counted_evaluate)

    monkeypatch.setattr(oracle, "sample_direction", counted_direction)
    return install


def blas_kernel() -> str:
    """The CPU kernel that numpy's bundled OpenBLAS picked when it loaded
    (for example "SkylakeX" or "Haswell"), or "unknown" without that
    library.  Kernels order their sums differently, so the pinned digests
    hold for one kernel; a digest test names it when it fails."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pytest_report_header():
    return f"BLAS kernel: {blas_kernel()}"


# OpenBLAS kernels with a measured digest set, oldest first.  A process may
# be forced to any kernel older than the one it detects with OPENBLAS_CORETYPE.
BLAS_KERNELS = ("Sandybridge", "Haswell", "SkylakeX")


def pinned_digest(digests: dict) -> str:
    """The digest that `digests` pins for the detected BLAS kernel.  Each key
    names, space-separated, the kernels that share its digest; a kernel that
    no key names fails the test and is never skipped."""
    kernel = blas_kernel()
    for kernels, digest in digests.items():
        if kernel in kernels.split():
            return digest
    pytest.fail(f"no digest is pinned for the BLAS kernel {kernel!r}: run the test under it "
                f"and add its digests, keyed by its name, next to those of {BLAS_KERNELS}")


def report_criterion(num: int, desc: str, passed: bool, detail: str = "") -> bool:
    """One pass/fail line per acceptance criterion (visible with -s or on failure)."""
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {num:2d}: {status} - {desc}{suffix}")
    return passed
