import warnings

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
def sv_stream():
    return r.make_stream("paper_quadratic", 10, 1, SV_SEED)


@pytest.fixture(scope="session")
def sv_ledger(sv_trace, sv_stream):
    return r.build_regret_ledger(sv_trace, sv_stream)


def reference_direction(seed, agent, t, dim, law):
    """The numpy route that sample_direction reproduces bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, agent, t)))
    xi = rng.standard_normal(dim)
    return xi / np.linalg.norm(xi) if law == "uniform_sphere" else xi


@pytest.fixture
def scalar_direction_blocks(monkeypatch):
    """A function that, once called, makes every block draw build its rows
    key by key with reference_direction: the reference for block-served draws."""
    def block(seed, dim, law, n_agents, t0, t1):
        return np.array([reference_direction(seed, k % n_agents, t0 + k // n_agents, dim, law)
                         for k in range((t1 - t0) * n_agents)])
    return lambda: monkeypatch.setattr(oracle, "_direction_block", block)


def report_criterion(num: int, desc: str, passed: bool, detail: str = "") -> bool:
    """One pass/fail line per acceptance criterion (visible with -s or on failure)."""
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {num:2d}: {status} - {desc}{suffix}")
    return passed
