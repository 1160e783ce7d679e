import builtins
import functools
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import array_estimates, reference_direction, run_threads, stream_rows
from rgfopt import experiments, oracle
from rgfopt.oracle import (
    ObjectiveStream,
    OracleConfig,
    OracleError,
    constant_stream,
    gradient_free_oracle,
    linear_probe_stream,
    make_stream,
    norm_stream,
    paper_objective_stream,
    sample_direction,
    smoothed_value_mc_stats,
    tracking_target,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


class TestSampleDirection:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 7, 2**100 + 3])
    def test_matches_seedsequence_reference(self, seed):
        for dim in (1, 2, 5):
            cfg = OracleConfig(4, 0.1, dim, rng_seed=seed)
            for agent in (0, 3):
                for t in (0, 1, 4999, 2**32 - 1):
                    assert np.array_equal(sample_direction(cfg, agent, t),
                                          reference_direction(seed, agent, t, dim))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**130), agent=st.integers(0, 15), t=st.integers(0, 2**32 - 1))
    def test_matches_reference_for_any_key(self, seed, agent, t):
        cfg = OracleConfig(16, 0.1, 3, rng_seed=seed)
        assert np.array_equal(sample_direction(cfg, agent, t),
                              reference_direction(seed, agent, t, 3))

    def test_threads_drawing_interleaved_keys_match_reference(self, monkeypatch):
        # the keys alternate each time step between the block edge at t = 256
        # and the last times below 2^32, so each thread's block misses and is
        # drawn again, over three blocks of 256 times
        drawn = []
        block = oracle._direction_block
        monkeypatch.setattr(oracle, "_direction_block",
                            lambda *args: drawn.append(args[3]) or block(*args))
        cfg = OracleConfig(8, 0.1, 2, rng_seed=11)
        keys = [(agent, t) for s in range(60) for t in (226 + s, 2**32 - 60 + s)
                for agent in range(8)]
        expected = {k: reference_direction(11, *k, 2) for k in keys}
        mismatches, errors = [], []

        def worker(offset):
            try:
                for k in keys[offset:] + keys[:offset]:
                    if not np.array_equal(sample_direction(cfg, *k), expected[k]):
                        mismatches.append(k)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = run_threads([functools.partial(worker, i) for i in range(4)], 1e-6, 60)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and mismatches == []
        assert set(drawn) == {0, 256, 2**32 - 256} and len(drawn) >= 4 * 120

    @pytest.mark.parametrize("agent, t", [(-1, 0), (0, -1), (-(2**40), 5)])
    def test_negative_agent_or_time_rejected(self, agent, t):
        cfg = OracleConfig(2, 0.1, 1)
        with pytest.raises(ValueError):
            sample_direction(cfg, agent, t)

    def test_deterministic_per_triple(self):
        cfg = OracleConfig(4, 0.1, 3, rng_seed=99)
        a = sample_direction(cfg, 2, 17)
        b = sample_direction(cfg, 2, 17)
        assert np.array_equal(a, b)

    def test_distinct_across_agents_and_times(self):
        cfg = OracleConfig(4, 0.1, 3, rng_seed=99)
        base = sample_direction(cfg, 0, 0)
        assert not np.array_equal(base, sample_direction(cfg, 1, 0))
        assert not np.array_equal(base, sample_direction(cfg, 0, 1))

    def test_gaussian_mean_near_zero(self):
        # Monte Carlo CLT band: 3/sqrt(n) < 0.02 per coordinate at n = 1e5
        cfg = OracleConfig(1, 0.1, 3, rng_seed=8)
        n = 100_000
        total = np.zeros(3)
        for t in range(n):
            total += sample_direction(cfg, 0, t)
        assert np.abs(total / n).max() < 0.02

    def test_rng_stream_reproducible_across_instances(self):
        # directions depend only on (seed, agent, t), not on the config's
        # other fields or on which instance draws them
        c1 = OracleConfig(5, 0.1, 2, rng_seed=123)
        c2 = OracleConfig(8, 0.7, 2, rng_seed=123)
        assert np.array_equal(sample_direction(c1, 4, 9), sample_direction(c2, 4, 9))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(2, -0.1, 1)

    @pytest.mark.parametrize("mu", [True, 0.0, -0.1, math.nan, math.inf, 10**400, [0.1],
                                    np.array([0.1, 0.2]), "0.1"],
                             ids=["bool", "zero", "negative", "nan", "inf", "int_over_float_range",
                                  "list", "array", "text"])
    def test_bad_mu_rejected_at_construction(self, mu):
        with pytest.raises(ValueError, match="mu must be a positive, finite float"):
            OracleConfig(2, mu, 1)

    @pytest.mark.parametrize("name, value", [
        ("n_agents", 0), ("n_agents", -1), ("n_agents", 2.0), ("n_agents", True), ("n_agents", "2"),
        ("dim", 0), ("dim", -2), ("dim", True), ("dim", 2.0), ("dim", "2")], ids=repr)
    def test_bad_n_agents_or_dim_rejected_at_construction(self, name, value):
        fields = {"n_agents": 2, "mu": 0.1, "dim": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            OracleConfig(**fields)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        cfg = OracleConfig(np.int64(4), np.float32(0.25), np.int32(3))
        assert (cfg.n_agents, cfg.mu, cfg.dim) == (4, 0.25, 3)
        assert [type(v) for v in (cfg.n_agents, cfg.mu, cfg.dim)] == [int, float, int]

    @pytest.mark.parametrize("seed", [-1, True, 3.5, "3", None])
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            OracleConfig(2, 0.1, 1, rng_seed=seed)

    def test_numpy_integer_seed_accepted(self):
        c1 = OracleConfig(2, 0.1, 2, rng_seed=np.int64(5))
        c2 = OracleConfig(2, 0.1, 2, rng_seed=5)
        assert np.array_equal(sample_direction(c1, 1, 2), sample_direction(c2, 1, 2))



def _takes_slow_path(seed, agent, t, dim):
    """Whether numpy's draw of this key leaves the ziggurat fast path, i.e.
    consumes more than one PCG64 output per coordinate."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, agent, t)))
    fast = np.random.PCG64()
    fast.state = rng.bit_generator.state
    rng.standard_normal(dim)
    return fast.advance(dim).state != rng.bit_generator.state


def _drawn_rows(seed, dim, n_agents, t0, t1):
    """sample_direction of every agent at times t0..t1-1, on a fresh config."""
    cfg = OracleConfig(n_agents, 0.1, dim, rng_seed=seed)
    return {(agent, t): sample_direction(cfg, agent, t)
            for t in range(t0, t1) for agent in range(n_agents)}


class TestBlockDirections:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**130), n_agents=st.integers(1, 12), edge=st.integers(0, 40),
           at_top=st.booleans(), back=st.integers(0, 16), span=st.integers(1, 32),
           dim=st.integers(1, 6))
    @example(seed=2**32 + 1, n_agents=3, edge=0, at_top=True, back=0, span=8, dim=2)
    def test_prefetched_draws_match_reference(self, seed, n_agents, edge, at_top, back, span, dim):
        # the keys start up to 16 times before a block edge, or end up to 16
        # times before t = 2^32
        steps_per_block = max(1, oracle._BLOCK_KEYS // n_agents)
        t0 = 2**32 - span - back if at_top else max(0, edge * steps_per_block - back)
        rows = _drawn_rows(seed, dim, n_agents, t0, t0 + span)
        for (agent, t), xi in rows.items():
            assert xi.tobytes() == reference_direction(seed, agent, t, dim).tobytes()

    def test_slow_path_keys_match_reference(self):
        rows = _drawn_rows(5, 2, 3, 0, 200)
        slow = [key for key in rows if _takes_slow_path(5, *key, 2)]
        assert len(slow) >= 5
        for agent, t in slow:
            assert rows[agent, t].tobytes() == reference_direction(5, agent, t, 2).tobytes()

    def test_a_miss_draws_the_aligned_block_once(self, monkeypatch):
        drawn = []
        block = oracle._direction_block
        monkeypatch.setattr(oracle, "_direction_block",
                            lambda *args: drawn.append(args[2:]) or block(*args))
        cfg = OracleConfig(4, 0.1, 2, rng_seed=3)  # 512 times per block
        for agent, t in [(2, 700), (0, 512), (3, 1023), (1, 600), (0, 1024), (3, 2**32 - 1)]:
            assert sample_direction(cfg, agent, t).tobytes() == \
                reference_direction(3, agent, t, 2).tobytes()
        # the block under 2^32 is cut short: 2^32 is a multiple of 512, but
        # not of the 682 times a 3-agent block holds
        sample_direction(OracleConfig(3, 0.1, 1), 0, 2**32 - 1)
        assert drawn == [(4, 512, 1024), (4, 1024, 1536), (4, 2**32 - 512, 2**32),
                         (3, 2**32 - (2**32 % 682), 2**32)]

    def test_keys_outside_the_config_are_rejected(self, monkeypatch):
        cfg = OracleConfig(4, 0.1, 2, rng_seed=3)
        sample_direction(cfg, 1, 12)  # caches the block of times 0..511
        monkeypatch.setattr(oracle, "_direction_block", lambda *args: pytest.fail("block drawn"))
        for agent, t in [(4, 12), (2**40, 3), (1, 2**32), (1, 2**32 + 9), (3, 2**64)]:
            message = (rf"direction key \(agent={agent}, t={t}\) is outside agents 0\.\.3 "
                       rf"and times 0\.\.{2**32 - 1}$")
            with pytest.raises(ValueError, match=message):
                sample_direction(cfg, agent, t)

    def test_configs_and_runs_interleaved_in_one_thread_match_reference(self):
        a = OracleConfig(5, 0.1, 2, rng_seed=21)
        b = OracleConfig(2, 0.3, 3, rng_seed=22)

        def check(cfg, keys):
            for agent, t in keys:
                assert sample_direction(cfg, agent, t).tobytes() == reference_direction(
                    cfg.rng_seed, agent, t, cfg.dim).tobytes()

        a_keys = [(agent, t) for t in range(400, 460) for agent in range(5)]
        b_keys = [(agent, t) for t in range(1000, 1100) for agent in range(2)]
        check(a, a_keys)
        check(b, b_keys)
        check(a, a_keys)
        check(OracleConfig(5, 0.1, 2, rng_seed=21), a_keys)
        for (i, j), t in zip([(0, 1), (4, 0), (2, 1)] * 60, range(400, 580)):
            check(a, [(i, t)])
            check(b, [(j, t + 600)])

    @pytest.mark.parametrize("agent, t, error", [
        (1.0, 5, TypeError), (1, 5.0, TypeError), (np.float64(1), 5, TypeError),
        (1, 5.5, TypeError), (-1, 5, ValueError), (1, -5, ValueError)],
        ids=["float_agent", "float_t", "numpy_float_agent", "fractional_t", "negative_agent",
             "negative_t"])
    def test_bad_keys_raise_before_and_after_their_block_is_cached(self, agent, t, error):
        cfg = OracleConfig(4, 0.1, 2, rng_seed=3)
        with pytest.raises(error):
            sample_direction(cfg, agent, t)
        sample_direction(cfg, 1, 5)
        with pytest.raises(error):
            sample_direction(cfg, agent, t)

    def test_returned_rows_are_copies(self):
        cfg = OracleConfig(1, 0.1, 2, rng_seed=6)
        sample_direction(cfg, 0, 1)[:] = 0.0
        assert np.array_equal(sample_direction(cfg, 0, 1), reference_direction(6, 0, 1, 2))


@pytest.fixture(scope="module")
def numpy_ziggurat_words():
    """numpy's double ziggurat tables as words (wi as IEEE-754 bits, ki),
    read off Generator(PCG64) by a full bisection for every ki word.

    A PCG64 state is placed so that its next output is a chosen r (one LCG
    step inverted; a stepped state with high word 0 outputs its low word).
    standard_normal then splits r into idx = r & 0xff and rabs = r >> 9:
    rabs = 1 returns 1 * wi[idx] (checked against rabs = 2), and ki[idx] is
    the least rabs whose draw consumes a second output.
    """
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    mult_inv = pow(mult, -1, 1 << 128)
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)

    def draw(r):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": (r - 1) * mult_inv % (1 << 128), "inc": 1},
                        "has_uint32": 0, "uinteger": 0}
        return gen.standard_normal(), bitgen.state["state"]["state"] != r

    wi, ki = [], []
    for idx in range(256):
        w = draw(1 << 9 | idx)[0]
        assert draw(2 << 9 | idx)[0] == 2 * w
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if draw(mid << 9 | idx)[1] else (mid + 1, hi)
        wi.append(struct.unpack("<Q", struct.pack("<d", w))[0])
        ki.append(lo)
    return wi, ki


def _assert_tables_are_words(tables, words):
    ki, wi = tables
    got = wi.view(np.uint64).tolist(), ki.tolist()
    for name, a, b in zip(("wi", "ki"), got, words):
        assert len(a) == len(b) == 256
        first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
        assert first is None, (
            f"numpy {np.__version__}: {name}[{first}] is {a[first]:#018x} in "
            f"oracle._ziggurat_tables() but {b[first]:#018x} by full bisection")


class TestZigguratTables:
    def test_tables_equal_a_full_bisection_probe(self, numpy_ziggurat_words):
        _assert_tables_are_words(oracle._ziggurat_tables(), numpy_ziggurat_words)

    @pytest.mark.parametrize("offset", [2, -2])
    def test_a_wrong_ki_guess_falls_back_to_the_bisection(self, monkeypatch,
                                                          numpy_ziggurat_words, offset):
        # the guess is the only use of round() in the oracle module, and a
        # guess off by 2 fails its bracket: slow at both guess - 1 and guess,
        # or fast at both
        guesses = []
        monkeypatch.setattr(oracle, "round", lambda x: guesses.append(x) or
                            builtins.round(x) + offset, raising=False)
        tables = oracle._ziggurat_tables.__wrapped__()
        assert len(guesses) == 254
        _assert_tables_are_words(tables, numpy_ziggurat_words)

    def test_tables_are_read_only(self):
        for table in oracle._ziggurat_tables():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_import_and_a_zero_horizon_run_never_probe(self):
        code = ("import rgfopt\n"
                "from rgfopt import oracle\n"
                "assert oracle._ziggurat_tables.cache_info().misses == 0\n"
                "rgfopt.run(rgfopt.RunConfig(horizon=0))\n"
                "print(oracle._ziggurat_tables.cache_info().misses)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr

    def test_threads_making_the_first_draws_at_once_match_reference(self):
        # a fresh interpreter, so the four threads race into the first probe
        code = """
import sys, threading
import numpy as np
from conftest import reference_direction
from rgfopt import oracle
from rgfopt.oracle import OracleConfig, sample_direction
assert oracle._ziggurat_tables.cache_info().misses == 0
cfgs = [OracleConfig(3, 0.1, 2, rng_seed=seed) for seed in range(4)]
keys = [(agent, t) for t in range(0, 2000, 7) for agent in range(3)]
start, bad = threading.Barrier(4), []

def worker(i):
    start.wait()
    for agent, t in keys:
        got = sample_direction(cfgs[i], agent, t)
        if got.tobytes() != reference_direction(i, agent, t, 2).tobytes():
            bad.append((i, agent, t))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
for th in threads:
    th.start()
for th in threads:
    th.join(timeout=60)
assert not any(th.is_alive() for th in threads)
print(oracle._ziggurat_tables.cache_info().misses >= 1, bad)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert (out.returncode, out.stdout) == (0, "True []\n"), out.stderr


class TestGradientFreeOracle:
    def test_linear_single_draw_identity(self):
        stream = linear_probe_stream(1, dim=3, seed=5)
        cfg = OracleConfig(1, 1e-3, 3, rng_seed=21)
        x = np.array([0.3, -1.2, 0.7])
        g = gradient_free_oracle(stream, cfg, 0, 4, x)
        xi = sample_direction(cfg, 0, 4)
        inner = stream.evaluate(0, 4, xi)  # <u, xi>, exact for linear costs
        assert np.allclose(g, inner * xi, rtol=1e-9, atol=1e-12)

    def test_linear_mean_recovers_gradient(self):
        stream = linear_probe_stream(1, dim=2, seed=5)
        cfg = OracleConfig(1, 1e-3, 2, rng_seed=77)
        n = 100_000
        total = np.zeros(2)
        total_sq = np.zeros(2)
        x = np.zeros(2)
        for t in range(n):
            g = gradient_free_oracle(stream, cfg, 0, t, x)
            total += g
            total_sq += g * g
        mean = total / n
        stderr = np.sqrt(np.maximum(total_sq / n - mean ** 2, 0) / n)
        # E[<u, xi> xi] = u for standard normal xi
        u = np.array([stream.evaluate(0, 0, e) for e in np.eye(2)])
        assert (np.abs(mean - u) <= 3.0 * stderr).all()

    def test_constant_stream_gives_zero(self):
        stream = constant_stream(3, dim=2)
        cfg = OracleConfig(3, 1e-2, 2, rng_seed=0)
        for t in range(10):
            g = gradient_free_oracle(stream, cfg, 1, t, np.array([0.5, -0.5]))
            assert np.array_equal(g, np.zeros(2))

    def test_squared_norm_at_origin_identity(self):
        stream = ObjectiveStream(
            n_agents=1, dim=3,
            evaluate=lambda i, t, x: float(np.asarray(x) @ np.asarray(x)))
        mu = 1e-4
        cfg = OracleConfig(1, mu, 3, rng_seed=13)
        g = gradient_free_oracle(stream, cfg, 0, 0, np.zeros(3))
        xi = sample_direction(cfg, 0, 0)
        assert np.allclose(g, mu * (xi @ xi) * xi, rtol=1e-12)
        assert np.linalg.norm(g) <= mu * np.linalg.norm(xi) ** 3 + 1e-15

    @pytest.mark.parametrize("dim", [2, 1])
    def test_exactly_two_evaluations(self, dim):
        calls = []

        def counting_eval(agent, t, x):
            calls.append((agent, t, x.tobytes()))
            return float(np.sum(x))

        stream = ObjectiveStream(n_agents=2, dim=dim, evaluate=counting_eval)
        cfg = OracleConfig(2, 0.1, dim, rng_seed=1)
        x = np.linspace(-0.5, 0.5, dim)
        gradient_free_oracle(stream, cfg, 1, 3, x)
        assert len(calls) == 2
        assert all(c[:2] == (1, 3) for c in calls)
        # the shifted point first, then the base point
        shifted = x + 0.1 * sample_direction(cfg, 1, 3)
        assert [c[2] for c in calls] == [shifted.tobytes(), x.tobytes()]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_a_kept_point_is_valid_only_during_the_call(self, dim):
        # evaluate's point may be reused after the call: at dim 1 the shifted
        # point's array becomes the estimate, so only a copy keeps the point
        kept, copied = [], []

        def keeping_eval(agent, t, x):
            kept.append(x)
            copied.append(x.copy())
            return float(np.sum(x))

        stream = ObjectiveStream(n_agents=2, dim=dim, evaluate=keeping_eval)
        cfg = OracleConfig(2, 0.1, dim, rng_seed=1)
        x = np.linspace(-0.5, 0.5, dim)
        g = gradient_free_oracle(stream, cfg, 1, 3, x)
        shifted = x + 0.1 * sample_direction(cfg, 1, 3)
        assert [c.tobytes() for c in copied] == [shifted.tobytes(), x.tobytes()]
        assert kept[1] is x
        if dim == 1:
            assert kept[0] is g
            assert kept[0].tobytes() != shifted.tobytes()
        else:
            assert not np.shares_memory(kept[0], g)
            assert kept[0].tobytes() == shifted.tobytes()

    @pytest.mark.parametrize("dim, shape", [(1, (3,)), (1, ()), (1, (1, 1)), (3, (1,)), (3, (3, 1))])
    def test_a_point_of_the_wrong_shape_is_rejected_before_drawing(self, monkeypatch, dim, shape):
        # a dim-1 direction would broadcast across a longer x and return a
        # one-coordinate estimate for it
        def never(*args):
            raise AssertionError("called for a rejected point")

        monkeypatch.setattr(oracle, "sample_direction", never)
        stream = ObjectiveStream(n_agents=2, dim=dim, evaluate=never)
        cfg = OracleConfig(2, 0.1, dim, rng_seed=1)
        message = rf"agent 1 at t=4 has shape \({', '.join(map(str, shape))},?\).*\({dim},\).*dim {dim}"
        with pytest.raises(ValueError, match=message):
            gradient_free_oracle(stream, cfg, 1, 4, np.full(shape, 0.5))

    def test_nonfinite_eval_raises_with_context(self):
        stream = ObjectiveStream(n_agents=1, dim=1,
                                 evaluate=lambda i, t, x: float("nan"))
        cfg = OracleConfig(1, 0.1, 1, rng_seed=1)
        with pytest.raises(OracleError, match="agent 0 at t=7"):
            gradient_free_oracle(stream, cfg, 0, 7, np.zeros(1))

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("dim", [3, 1])
    def test_returns_a_fresh_array_and_leaves_x_alone(self, dim, prefetch):
        # the estimate is written into the fresh direction, so each call
        # must own its direction and never write to the caller's x; the
        # second call is served from the cached block, or, without prefetch,
        # misses it after another config's draw and draws the block again
        t = 2
        stream = paper_objective_stream(2, dim=dim, coeff_seed=4)
        cfg = OracleConfig(2, 1e-2, dim, rng_seed=8)
        x = np.array([0.3, -1.1, 2.0][:dim])
        kept = x.tobytes()
        first = gradient_free_oracle(stream, cfg, 1, t, x)
        expected = first.copy()
        first[:] = 7.0
        if not prefetch:
            sample_direction(OracleConfig(2, 1e-2, dim, rng_seed=8), 1, t)
        second = gradient_free_oracle(stream, cfg, 1, t, x)
        xi = sample_direction(cfg, 1, t)
        assert second.tobytes() == expected.tobytes()
        assert not np.shares_memory(second, first) and not np.shares_memory(second, x)
        assert xi.tobytes() == reference_direction(8, 1, t, dim).tobytes()
        assert x.tobytes() == kept

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("agent", [-1, -2, -(2**40), 2, 2**40])
    def test_an_agent_outside_the_config_is_rejected_before_any_evaluation(self, agent, dim):
        stream = ObjectiveStream(n_agents=2, dim=dim, evaluate=lambda *args: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match=rf"\(agent={agent}, t=9\) is outside agents 0\.\.1"):
            gradient_free_oracle(stream, OracleConfig(2, 0.1, dim, rng_seed=4), agent, 9, np.zeros(dim))

    def test_deterministic_sequences(self):
        stream = norm_stream(2, dim=2)
        cfg = OracleConfig(2, 1e-2, 2, rng_seed=31)
        x = np.array([0.2, 0.4])
        seq1 = [gradient_free_oracle(stream, cfg, 0, t, x) for t in range(20)]
        seq2 = [gradient_free_oracle(stream, cfg, 0, t, x) for t in range(20)]
        assert all(np.array_equal(a, b) for a, b in zip(seq1, seq2))


class TestSmoothedValue:
    def test_tiny_mu_recovers_value(self):
        stream = norm_stream(1, dim=2)
        x = np.array([1.3, -0.4])
        est, _ = smoothed_value_mc_stats(experiments._row_norms, x, mu=1e-12, n_samples=2000, seed=6)
        assert abs(est - stream.evaluate(0, 0, x)) < 1e-6

    def test_quadratic_closed_form(self):
        # Gaussian smoothing of ||x||^2 adds exactly mu^2 * p
        x = np.array([0.7, -0.2])
        mu = 0.3
        est, se = smoothed_value_mc_stats(lambda pts: (pts ** 2).sum(axis=1), x, mu, 100_000, seed=42)
        expected = float(x @ x) + mu ** 2 * 2
        assert abs(est - expected) <= 3.0 * se

    def test_sandwich_on_lipschitz_stream(self):
        # f <= f_mu <= f + sqrt(p) mu D for convex D-Lipschitz f
        stream = norm_stream(1, dim=1)
        mu = 0.05
        rng = np.random.default_rng(3)
        for k in range(5):
            x = rng.uniform(-2, 2, 1)
            f_val = stream.evaluate(0, 0, x)
            est, se = smoothed_value_mc_stats(experiments._row_norms, x, mu, 20_000, seed=50 + k)
            assert f_val - 3 * se <= est <= f_val + math.sqrt(1) * mu * 1.0 + 3 * se

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            smoothed_value_mc_stats(experiments._row_norms, np.zeros(1), 0.1, 0, seed=1)

    def test_deterministic_given_seed(self):
        x = np.array([0.1, 0.9])
        a = smoothed_value_mc_stats(experiments._row_norms, x, 0.2, 500, seed=9)
        b = smoothed_value_mc_stats(experiments._row_norms, x, 0.2, 500, seed=9)
        assert a == b

    def test_calls_f_once_on_the_whole_block(self):
        # one vectorized call: a per-row path would cost each of the
        # diagnostics' sandwich rows 100,000 Python calls
        shapes = []

        def f(points):
            shapes.append(points.shape)
            return (points ** 2).sum(axis=1)

        smoothed_value_mc_stats(f, np.array([0.5, -1.0, 2.0]), 0.1, 1000, seed=3)
        assert shapes == [(1000, 3)]


class TestLemma1Properties:
    def test_unbiasedness_on_random_convex_quadratic(self):
        # oracle mean versus central finite difference of the smoothed value
        rng = np.random.default_rng(17)
        m = rng.standard_normal((2, 2))
        a_mat = m @ m.T + 0.5 * np.eye(2)
        b_vec = rng.standard_normal(2)

        def fval(x):
            return float(x @ a_mat @ x + b_vec @ x)

        stream = ObjectiveStream(
            n_agents=1, dim=2, evaluate=lambda i, t, x: fval(np.asarray(x, dtype=float)))

        def fvals(pts):
            return np.einsum("ki,ij,kj->k", pts, a_mat, pts) + pts @ b_vec

        mu = 0.01
        cfg = OracleConfig(1, mu, 2, rng_seed=900)
        x = np.array([0.3, -0.8])
        n = 40_000
        total = np.zeros(2)
        total_sq = np.zeros(2)
        for t in range(n):
            g = gradient_free_oracle(stream, cfg, 0, t, x)
            total += g
            total_sq += g * g
        mean = total / n
        stderr = np.sqrt(np.maximum(total_sq / n - mean ** 2, 0) / n)
        h = 0.1
        fd = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            hi, _ = smoothed_value_mc_stats(fvals, x + e, mu, 100_000, seed=1000 + j)
            lo, _ = smoothed_value_mc_stats(fvals, x - e, mu, 100_000, seed=2000 + j)
            fd[j] = (hi - lo) / (2 * h)
        assert (np.abs(mean - fd) <= 4.0 * stderr).all()

    def test_second_moment_stays_under_ceiling(self):
        for p in (1, 2, 5):
            stream = norm_stream(1, dim=p)
            cfg = OracleConfig(1, 1e-3, p, rng_seed=70 + p)
            rng = np.random.default_rng(200 + p)
            x = rng.uniform(-1, 1, p)
            n = 20_000
            acc = 0.0
            for t in range(n):
                g = gradient_free_oracle(stream, cfg, 0, t, x)
                acc += g @ g
            assert acc / n <= (p + 4) ** 2 * 1.0 ** 2


class TestPaperStream:
    def test_coefficient_sums_normalized(self):
        stream = paper_objective_stream(10, coeff_seed=1)
        for key in ("a", "b", "c"):
            assert abs(sum(stream.params[key]) - 10.0) < 1e-12
        assert all(v > 0 for v in stream.params["a"])

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="need n_agents >= 1, got 0"):
            paper_objective_stream(0)

    def test_target_at_zero_is_limit_value(self):
        assert tracking_target(0) == 0.016

    def test_target_formula(self):
        assert tracking_target(100) == pytest.approx(2 * math.sin(0.8) / 100, rel=1e-15)

    @pytest.mark.parametrize("t", [0, 100, 1000])
    def test_minimizer_matches_grid_search(self, t):
        # independent oracle: dense grid over the box at 1e-4 resolution
        stream = paper_objective_stream(10, coeff_seed=3)
        grid = np.linspace(-5.0, 5.0, 100_001)
        costs = stream.aggregate_cost(t, grid[:, None])
        best = grid[np.argmin(costs)]
        d = tracking_target(t)
        assert abs(best - d) <= 1e-4
        assert np.allclose(stream.analytic_minimizer(t), d)

    def test_aggregate_matches_explicit_sum(self):
        stream = paper_objective_stream(6, coeff_seed=2)
        x = np.array([1.7])
        explicit = sum(stream.evaluate(j, 50, x) for j in range(6))
        assert stream.aggregate_cost(50, x[None, :])[0] == pytest.approx(explicit, rel=1e-12)

    def test_subgradient_bound_is_valid(self):
        stream = paper_objective_stream(8, coeff_seed=5)
        rng = np.random.default_rng(0)
        worst = 0.0
        for t in (0, 10, 500):
            for x in rng.uniform(-5, 5, (50, 1)):
                for j in range(8):
                    a = stream.params["a"][j]
                    b = stream.params["b"][j]
                    grad = 2 * a * x[0] - 2 * b * tracking_target(t)
                    worst = max(worst, abs(grad))
        assert worst <= stream.subgradient_bound(5.0)

    @pytest.mark.parametrize("dim, rho", [(1, 50.0), (3, 5.0 * math.sqrt(3))])
    def test_subgradient_bound_covers_the_radius(self, dim, rho):
        # the bound is attained by the steepest agent at a corner of the box
        # [-rho/sqrt(p), rho/sqrt(p)]^p with the target at its extreme
        stream = paper_objective_stream(8, dim=dim, coeff_seed=5)
        a, b = np.array(stream.params["a"]), np.array(stream.params["b"])
        x = np.full(dim, rho / math.sqrt(dim))
        steepest = np.linalg.norm(2 * a[:, None] * x + 2 * b[:, None] * 0.016, axis=1).max()
        assert steepest == pytest.approx(stream.subgradient_bound(rho), rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_threads_evaluating_interleaved_times_match_the_formula(self, dim):
        # the threads visit a few shared times, each in its own random order,
        # so each often reads the d(t) memo right after another thread moved it
        stream = paper_objective_stream(5, dim=dim, coeff_seed=4)
        x = np.linspace(-1.3, 0.7, dim)
        keys = [(agent, t) for agent in range(5) for t in (0, 1, 7, 250, 4999)] * 80
        agents, ts = np.array(keys).T
        values = stream_rows("paper_quadratic", stream)(agents, ts, np.tile(x, (len(keys), 1)))
        reference = {k: v.hex() for k, v in zip(keys, values.tolist())}
        mismatches, errors = [], []

        def worker(offset):
            try:
                for i in np.random.default_rng(offset).permutation(len(keys)).tolist():
                    k = keys[i]
                    if stream.evaluate(*k, x).hex() != reference[k]:
                        mismatches.append(k)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = run_threads([functools.partial(worker, i) for i in range(4)], 1e-6, 60)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and mismatches == []

    def test_bound_of_other_streams_ignores_radius(self):
        for rho in (1.0, 50.0):
            assert linear_probe_stream(2).subgradient_bound(rho) == 1.0
            assert norm_stream(2).subgradient_bound(rho) == 1.0
            assert constant_stream(2).subgradient_bound(rho) == 0.0


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e154, -1e154, 1e200, -1e200, math.inf, -math.inf, math.nan]

_DOT_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                         1e200, -1e200]),
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_DOT_FLOATS, min_size=1, max_size=7), t=st.integers(0, 10_000),
       coeff_seed=st.integers(0, 4))
@example(x=[-0.0], t=0, coeff_seed=0)
@example(x=[-0.0, 0.0, 5e-324], t=3, coeff_seed=0)
def test_dot_evaluates_equal_the_matmul_formula(x, t, coeff_seed):
    # the squared-norm and paper streams' 1-D dot products run ndarray.dot;
    # `@` and the paper cost's stacked row formula are the references
    x = np.array(x)
    dim = x.size
    paper = paper_objective_stream(7, dim=dim, coeff_seed=coeff_seed)
    expected = stream_rows("paper_quadratic", paper)(np.arange(7), t, np.tile(x, (7, 1)))
    with np.errstate(all="ignore"):
        square = experiments.quadratic_norm_stream(dim).evaluate(0, t, x)
        assert square.hex() == float(x @ x).hex()
        assert [paper.evaluate(agent, t, x).hex() for agent in range(7)] == \
            [v.hex() for v in expected.tolist()]


def _outcome(call):
    """call()'s bytes, or the message of the OracleError it raises."""
    try:
        return call().tobytes()
    except OracleError as exc:
        return str(exc)


DIM_ONE_STREAMS = {
    "paper_quadratic": lambda: paper_objective_stream(3, dim=1, coeff_seed=6),
    "linear_probe": lambda: linear_probe_stream(3, dim=1, seed=6),
    "constant": lambda: constant_stream(3, dim=1),
    "norm": lambda: norm_stream(3, dim=1),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestDimOneRoute:
    """At dim 1 the paper stream and the estimator run on Python floats;
    they must keep the bits of the numpy route at every IEEE edge value."""

    @pytest.mark.parametrize("v", EDGE_VALUES, ids=repr)
    def test_paper_evaluate_equals_the_numpy_formula_at_edge_values(self, v):
        stream = paper_objective_stream(7, dim=1, coeff_seed=3)
        values = stream_rows("paper_quadratic", stream)
        x = np.array([v])
        for t in (0, 1, 250, 5000):
            assert [stream.evaluate(agent, t, x).hex() for agent in range(7)] == \
                [f.hex() for f in values(np.arange(7), t, np.tile(x, (7, 1))).tolist()]

    def test_paper_evaluate_rejects_more_than_one_coordinate_at_dim_1(self):
        stream = paper_objective_stream(2, dim=1)
        with pytest.raises(ValueError):
            stream.evaluate(0, 3, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("v", EDGE_VALUES, ids=repr)
    @pytest.mark.parametrize("name", sorted(DIM_ONE_STREAMS))
    def test_oracle_equals_the_numpy_estimator_at_edge_values(self, name, v):
        # the same estimate bytes, or the same OracleError message
        stream = DIM_ONE_STREAMS[name]()
        values = stream_rows(name, stream)
        x = np.array([v])
        for mu in (1e-3, 0.5, 1e150):
            cfg = OracleConfig(3, mu, 1, rng_seed=6)
            # (1, 2^32 - 1) misses the block of times 0..681 that (0, 0) drew
            for agent, t in ((0, 0), (2, 9), (1, 2**32 - 1)):
                xi = reference_direction(6, agent, t, 1)
                expected = _outcome(lambda: array_estimates(values, mu, [agent], [t], x[None],
                                                            xi[None])[0])
                assert _outcome(lambda: gradient_free_oracle(stream, cfg, agent, t, x)) == expected


def _time_dependent_stream(n_agents, dim):
    """A stream with no aggregate hook, so aggregate_cost takes its loop."""
    return ObjectiveStream(
        n_agents=n_agents, dim=dim,
        evaluate=lambda agent, t, x: float((agent + 1) * (x @ x) - math.cos(t) * x.sum()))


BLOCK_STREAMS = {
    **{f"paper_dim{p}": lambda p=p: paper_objective_stream(5, dim=p, coeff_seed=p)
       for p in range(1, 7)},
    "linear_probe": lambda: linear_probe_stream(5, dim=3, seed=2),
    "constant": lambda: constant_stream(5, dim=2),
    "no_hook": lambda: _time_dependent_stream(5, 2),
}


class TestNormStream:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 7), log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_evaluate_equals_linalg_norm(self, dim, log_scale, seed):
        stream = norm_stream(1, dim=dim)
        for x in np.random.default_rng(seed).standard_normal((20, dim)) * 10.0 ** log_scale:
            assert stream.evaluate(0, 0, x).hex() == float(np.linalg.norm(x)).hex()

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_row_norms_equal_per_row_evaluate(self, dim):
        # the smoothing sandwich smooths |x| through the row-norm function,
        # so each of its rows must have the bits of norm_stream's evaluate
        stream = norm_stream(1, dim=dim)
        rng = np.random.default_rng(dim)
        points = rng.standard_normal((3000, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (3000, 1))
        rows = np.array([stream.evaluate(0, 0, p) for p in points])
        assert experiments._row_norms(points).tobytes() == rows.tobytes()


class TestBlockAggregateCost:
    @pytest.mark.parametrize("name", sorted(BLOCK_STREAMS))
    @settings(max_examples=40, deadline=None)
    @given(times=st.lists(st.integers(0, 10_000), min_size=0, max_size=12),
           rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_block_equals_stacked_per_time_calls(self, name, times, rows, seed):
        # one time per row: the run records every (t, agent) row in one call,
        # where it used to make one call of N >= 2 rows per time
        stream = BLOCK_STREAMS[name]()
        x = np.random.default_rng(seed).uniform(-5.0, 5.0, (len(times) * rows, stream.dim))
        block = stream.aggregate_cost(np.repeat(np.array(times, dtype=int), rows), x)
        stacked = [stream.aggregate_cost(t, x[k * rows:(k + 1) * rows])
                   for k, t in enumerate(times)]
        assert block.shape == (len(times) * rows,)
        assert block.tobytes() == np.concatenate([np.empty(0), *stacked]).tobytes()

    def test_paper_stream_uses_the_scalar_target(self, monkeypatch):
        # np.sin may differ from math.sin in the last bit; the hook must not use it
        monkeypatch.setattr(oracle.np, "sin", None)
        stream = paper_objective_stream(3, dim=2)
        x = np.ones((4, 2))
        assert stream.aggregate_cost(np.array([0, 7, 7, 300]), x).tobytes() == np.concatenate(
            [stream.aggregate_cost(t, x[k:k + 1]) for k, t in enumerate([0, 7, 7, 300])]).tobytes()


class TestRegistry:
    def test_registered_names(self):
        for name in ("paper_quadratic", "linear_probe", "constant"):
            stream = make_stream(name, 4, 1, seed=0)
            assert stream.n_agents == 4

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown stream"):
            make_stream("mystery", 4, 1, seed=0)

    def test_constant_stream_is_zero(self):
        stream = make_stream("constant", 3, 2, seed=0)
        x = np.array([[0.5, -2.0], [0.0, 7.0]])
        assert [stream.evaluate(i, 4, row) for i, row in zip((0, 2), x)] == [0.0, 0.0]
        assert stream.aggregate_cost(4, x).tobytes() == np.zeros(2).tobytes()
        assert stream.params == {}
