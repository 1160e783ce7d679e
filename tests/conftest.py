import ctypes
import dataclasses
import glob
import os
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


def reference_direction(seed, agent, t, dim, law):
    """The numpy route that sample_direction reproduces bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, agent, t)))
    xi = rng.standard_normal(dim)
    return xi / np.linalg.norm(xi) if law == "uniform_sphere" else xi


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
    def block(seed, dim, law, n_agents, t0, t1):
        return np.array([reference_direction(seed, k % n_agents, t0 + k // n_agents, dim, law)
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


def report_criterion(num: int, desc: str, passed: bool, detail: str = "") -> bool:
    """One pass/fail line per acceptance criterion (visible with -s or on failure)."""
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {num:2d}: {status} - {desc}{suffix}")
    return passed
