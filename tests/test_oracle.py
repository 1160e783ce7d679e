import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgfopt import oracle
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


def reference_direction(seed, agent, t, dim, law):
    """The numpy route that sample_direction reproduces bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, agent, t)))
    xi = rng.standard_normal(dim)
    return xi / np.linalg.norm(xi) if law == "uniform_sphere" else xi


class TestSampleDirection:
    @pytest.mark.parametrize("law", ["gaussian", "uniform_sphere"])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 7, 2**100 + 3])
    def test_matches_seedsequence_reference(self, seed, law):
        for dim in (1, 2, 5):
            cfg = OracleConfig.uniform(1, 0.1, dim, direction_law=law, rng_seed=seed)
            for agent in (0, 3, 2**32 + 1):
                for t in (0, 1, 4999, 2**32 - 1, 2**32, 2**40 + 3):
                    assert np.array_equal(sample_direction(cfg, agent, t),
                                          reference_direction(seed, agent, t, dim, law))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**130), agent=st.integers(0, 2**70), t=st.integers(0, 2**70))
    def test_matches_reference_for_any_key(self, seed, agent, t):
        cfg = OracleConfig.uniform(1, 0.1, 3, rng_seed=seed)
        assert np.array_equal(sample_direction(cfg, agent, t),
                              reference_direction(seed, agent, t, 3, "gaussian"))

    def test_threads_drawing_interleaved_keys_match_reference(self, monkeypatch):
        # agents >= mu.size and times >= 2^32 are never block-served, so every
        # draw here sets and reads this thread's generator
        monkeypatch.setattr(oracle, "_direction_block", lambda *args: pytest.fail("block drawn"))
        cfg = OracleConfig.uniform(8, 0.1, 2, rng_seed=11)
        keys = [(agent + 8, t) for t in range(125) for agent in range(8)]
        keys += [(agent, 2**32 + t) for t in range(125) for agent in range(8)]
        expected = {k: reference_direction(11, *k, 2, "gaussian") for k in keys}
        mismatches, errors = [], []

        def worker(offset):
            try:
                for k in keys[offset:] + keys[:offset]:
                    if not np.array_equal(sample_direction(cfg, *k), expected[k]):
                        mismatches.append(k)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and mismatches == []

    @pytest.mark.parametrize("agent, t", [(-1, 0), (0, -1), (-(2**40), 5)])
    def test_negative_agent_or_time_rejected(self, agent, t):
        cfg = OracleConfig.uniform(2, 0.1, 1)
        with pytest.raises(ValueError):
            sample_direction(cfg, agent, t)

    def test_deterministic_per_triple(self):
        cfg = OracleConfig.uniform(4, 0.1, 3, rng_seed=99)
        a = sample_direction(cfg, 2, 17)
        b = sample_direction(cfg, 2, 17)
        assert np.array_equal(a, b)

    def test_distinct_across_agents_and_times(self):
        cfg = OracleConfig.uniform(4, 0.1, 3, rng_seed=99)
        base = sample_direction(cfg, 0, 0)
        assert not np.array_equal(base, sample_direction(cfg, 1, 0))
        assert not np.array_equal(base, sample_direction(cfg, 0, 1))

    def test_uniform_sphere_unit_norm(self):
        cfg = OracleConfig.uniform(2, 0.1, 5, direction_law="uniform_sphere", rng_seed=3)
        for t in range(50):
            xi = sample_direction(cfg, 0, t)
            assert abs(np.linalg.norm(xi) - 1.0) < 1e-12

    def test_gaussian_mean_near_zero(self):
        # Monte Carlo CLT band: 3/sqrt(n) < 0.02 per coordinate at n = 1e5
        cfg = OracleConfig.uniform(1, 0.1, 3, rng_seed=8)
        n = 100_000
        total = np.zeros(3)
        for t in range(n):
            total += sample_direction(cfg, 0, t)
        assert np.abs(total / n).max() < 0.02

    def test_rng_stream_reproducible_across_instances(self):
        # directions depend only on (seed, agent, t), not on the config's
        # other fields or on which instance draws them
        c1 = OracleConfig.uniform(5, 0.1, 2, rng_seed=123)
        c2 = OracleConfig.uniform(8, 0.7, 2, rng_seed=123)
        assert np.array_equal(sample_direction(c1, 4, 9), sample_direction(c2, 4, 9))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(mu=np.array([0.1, -0.1]), dim=1)
        with pytest.raises(ValueError):
            OracleConfig.uniform(2, 0.1, 1, direction_law="cauchy")

    @pytest.mark.parametrize("mu, dim", [([0.1], 0), ([0.1], -2), ([0.1], True), ([0.1, 0.1], 2.0),
                                         ([0.1], "2"), ([[0.1, 0.1]], 2), ([], 1),
                                         ([0.1, math.nan], 1), ([math.inf], 1)])
    def test_bad_dim_or_mu_rejected_at_construction(self, mu, dim):
        with pytest.raises(ValueError, match="dim|mu"):
            OracleConfig(mu=mu, dim=dim)

    def test_numpy_integer_dim_accepted(self):
        cfg = OracleConfig(mu=[0.1, 0.2], dim=np.int32(3))
        assert cfg.dim == 3 and type(cfg.dim) is int

    @pytest.mark.parametrize("seed", [-1, True, 3.5, "3", None])
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            OracleConfig.uniform(2, 0.1, 1, rng_seed=seed)

    def test_numpy_integer_seed_accepted(self):
        c1 = OracleConfig.uniform(2, 0.1, 2, rng_seed=np.int64(5))
        c2 = OracleConfig.uniform(2, 0.1, 2, rng_seed=5)
        assert np.array_equal(sample_direction(c1, 1, 2), sample_direction(c2, 1, 2))

    def test_mu_hat_is_max(self):
        cfg = OracleConfig(mu=np.array([0.1, 0.5, 0.2]), dim=1)
        assert cfg.mu_hat == 0.5


def _takes_slow_path(seed, agent, t, dim):
    """Whether numpy's draw of this key leaves the ziggurat fast path, i.e.
    consumes more than one PCG64 output per coordinate."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, agent, t)))
    fast = np.random.PCG64()
    fast.state = rng.bit_generator.state
    rng.standard_normal(dim)
    return fast.advance(dim).state != rng.bit_generator.state


def _drawn_rows(seed, dim, law, n_agents, t0, t1):
    """sample_direction of every agent at times t0..t1-1, on a fresh config."""
    cfg = OracleConfig.uniform(n_agents, 0.1, dim, direction_law=law, rng_seed=seed)
    return {(agent, t): sample_direction(cfg, agent, t)
            for t in range(t0, t1) for agent in range(n_agents)}


class TestBlockDirections:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**130), n_agents=st.integers(1, 12), edge=st.integers(0, 40),
           at_top=st.booleans(), back=st.integers(0, 16), span=st.integers(1, 32),
           dim=st.integers(1, 6), law=st.sampled_from(["gaussian", "uniform_sphere"]))
    @example(seed=2**32 + 1, n_agents=3, edge=0, at_top=True, back=4, span=8, dim=2,
             law="uniform_sphere")
    def test_prefetched_draws_match_reference(self, seed, n_agents, edge, at_top, back, span,
                                              dim, law):
        # the keys start up to 16 times before a block edge or before t = 2^32
        steps_per_block = max(1, oracle._BLOCK_KEYS // n_agents)
        t0 = max(0, (2**32 if at_top else edge * steps_per_block) - back)
        rows = _drawn_rows(seed, dim, law, n_agents, t0, t0 + span)
        for (agent, t), xi in rows.items():
            assert xi.tobytes() == reference_direction(seed, agent, t, dim, law).tobytes()

    @pytest.mark.parametrize("law", ["gaussian", "uniform_sphere"])
    def test_slow_path_keys_match_reference(self, law):
        rows = _drawn_rows(5, 2, law, 3, 0, 200)
        slow = [key for key in rows if _takes_slow_path(5, *key, 2)]
        assert len(slow) >= 5
        for agent, t in slow:
            assert rows[agent, t].tobytes() == reference_direction(5, agent, t, 2, law).tobytes()

    def test_a_miss_draws_the_aligned_block_once(self, monkeypatch):
        drawn = []
        block = oracle._direction_block
        monkeypatch.setattr(oracle, "_direction_block",
                            lambda *args: drawn.append(args[3:]) or block(*args))
        cfg = OracleConfig.uniform(4, 0.1, 2, rng_seed=3)  # 512 times per block
        for agent, t in [(2, 700), (0, 512), (3, 1023), (1, 600), (0, 1024), (3, 2**32 - 1)]:
            assert sample_direction(cfg, agent, t).tobytes() == \
                reference_direction(3, agent, t, 2, "gaussian").tobytes()
        # the block under 2^32 is cut short: 2^32 is a multiple of 512, but
        # not of the 682 times a 3-agent block holds
        sample_direction(OracleConfig.uniform(3, 0.1, 1), 0, 2**32 - 1)
        assert drawn == [(4, 512, 1024), (4, 1024, 1536), (4, 2**32 - 512, 2**32),
                         (3, 2**32 - (2**32 % 682), 2**32)]

    def test_keys_outside_the_block_take_the_scalar_route(self, monkeypatch):
        cfg = OracleConfig.uniform(4, 0.1, 2, rng_seed=3)
        sample_direction(cfg, 1, 12)  # caches the block of times 0..511
        monkeypatch.setattr(oracle, "_direction_block", lambda *args: pytest.fail("block drawn"))
        for agent, t in [(4, 12), (2**40, 3), (1, 2**32), (1, 2**32 + 9), (3, 2**64)]:
            assert np.array_equal(sample_direction(cfg, agent, t),
                                  reference_direction(3, agent, t, 2, "gaussian"))

    def test_configs_and_runs_interleaved_in_one_thread_match_reference(self):
        a = OracleConfig.uniform(5, 0.1, 2, rng_seed=21)
        b = OracleConfig.uniform(2, 0.3, 3, direction_law="uniform_sphere", rng_seed=22)

        def check(cfg, keys):
            for agent, t in keys:
                assert sample_direction(cfg, agent, t).tobytes() == reference_direction(
                    cfg.rng_seed, agent, t, cfg.dim, cfg.direction_law).tobytes()

        a_keys = [(agent, t) for t in range(400, 460) for agent in range(5)]
        b_keys = [(agent, t) for t in range(1000, 1100) for agent in range(2)]
        check(a, a_keys)
        check(b, b_keys)
        check(a, a_keys)
        check(OracleConfig.uniform(5, 0.1, 2, rng_seed=21), a_keys)
        for (i, j), t in zip([(0, 1), (4, 0), (2, 1)] * 60, range(400, 580)):
            check(a, [(i, t)])
            check(b, [(j, t + 600)])

    @pytest.mark.parametrize("agent, t, error", [
        (1.0, 5, TypeError), (1, 5.0, TypeError), (np.float64(1), 5, TypeError),
        (1, 5.5, TypeError), (-1, 5, ValueError), (1, -5, ValueError)],
        ids=["float_agent", "float_t", "numpy_float_agent", "fractional_t", "negative_agent",
             "negative_t"])
    def test_bad_keys_raise_before_and_after_their_block_is_cached(self, agent, t, error):
        cfg = OracleConfig.uniform(4, 0.1, 2, rng_seed=3)
        with pytest.raises(error):
            sample_direction(cfg, agent, t)
        sample_direction(cfg, 1, 5)
        with pytest.raises(error):
            sample_direction(cfg, agent, t)

    def test_returned_rows_are_copies(self):
        cfg = OracleConfig.uniform(1, 0.1, 2, rng_seed=6)
        sample_direction(cfg, 0, 1)[:] = 0.0
        assert np.array_equal(sample_direction(cfg, 0, 1), reference_direction(6, 0, 1, 2, "gaussian"))


def _probe_ziggurat_tables():
    """numpy's double ziggurat tables (wi, ki), read off Generator(PCG64).

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
        wi.append(w)
        ki.append(lo)
    return wi, ki


def _hex_words(words):
    return "\n".join("    " + " ".join(f"{w:016x}" for w in words[i:i + 4])
                     for i in range(0, len(words), 4))


def test_embedded_ziggurat_tables_match_numpy():
    wi, ki = _probe_ziggurat_tables()
    wi_bits = [struct.unpack("<Q", struct.pack("<d", w))[0] for w in wi]
    embedded = (oracle._ZIGGURAT_WI.view(np.uint64).tolist(), oracle._ZIGGURAT_KI.tolist())
    assert embedded == (wi_bits, ki), (
        f"numpy {np.__version__} draws normals from other ziggurat tables; replace the "
        f"literals in rgfopt/oracle.py with\n_ZIGGURAT_KI:\n{_hex_words(ki)}\n"
        f"_ZIGGURAT_WI:\n{_hex_words(wi_bits)}")


class TestGradientFreeOracle:
    def test_linear_single_draw_identity(self):
        stream = linear_probe_stream(1, dim=3, seed=5, scale=2.0)
        cfg = OracleConfig.uniform(1, 1e-3, 3, rng_seed=21)
        x = np.array([0.3, -1.2, 0.7])
        g = gradient_free_oracle(stream, cfg, 0, 4, x)
        xi = sample_direction(cfg, 0, 4)
        inner = stream.evaluate(0, 4, xi)  # <u, xi>, exact for linear costs
        assert np.allclose(g, inner * xi, rtol=1e-9, atol=1e-12)

    def test_linear_mean_recovers_gradient(self):
        stream = linear_probe_stream(1, dim=2, seed=5, scale=1.5)
        cfg = OracleConfig.uniform(1, 1e-3, 2, rng_seed=77)
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
        stream = constant_stream(3, dim=2, value=4.0)
        cfg = OracleConfig.uniform(3, 1e-2, 2, rng_seed=0)
        for t in range(10):
            g = gradient_free_oracle(stream, cfg, 1, t, np.array([0.5, -0.5]))
            assert np.array_equal(g, np.zeros(2))

    def test_squared_norm_at_origin_identity(self):
        stream = ObjectiveStream(
            n_agents=1, dim=3,
            evaluate=lambda i, t, x: float(np.asarray(x) @ np.asarray(x)))
        mu = 1e-4
        cfg = OracleConfig.uniform(1, mu, 3, rng_seed=13)
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
        cfg = OracleConfig.uniform(2, 0.1, dim, rng_seed=1)
        x = np.linspace(-0.5, 0.5, dim)
        gradient_free_oracle(stream, cfg, 1, 3, x)
        assert len(calls) == 2
        assert all(c[:2] == (1, 3) for c in calls)
        # the shifted point first, then the base point
        shifted = x + 0.1 * sample_direction(cfg, 1, 3)
        assert [c[2] for c in calls] == [shifted.tobytes(), x.tobytes()]

    @pytest.mark.parametrize("dim, shape", [(1, (3,)), (1, ()), (1, (1, 1)), (3, (1,)), (3, (3, 1))])
    def test_a_point_of_the_wrong_shape_is_rejected_before_drawing(self, monkeypatch, dim, shape):
        # a dim-1 direction would broadcast across a longer x and return a
        # one-coordinate estimate for it
        def never(*args):
            raise AssertionError("called for a rejected point")

        monkeypatch.setattr(oracle, "sample_direction", never)
        stream = ObjectiveStream(n_agents=2, dim=dim, evaluate=never)
        cfg = OracleConfig.uniform(2, 0.1, dim, rng_seed=1)
        message = rf"agent 1 at t=4 has shape \({', '.join(map(str, shape))},?\).*\({dim},\).*dim {dim}"
        with pytest.raises(ValueError, match=message):
            gradient_free_oracle(stream, cfg, 1, 4, np.full(shape, 0.5))

    def test_nonfinite_eval_raises_with_context(self):
        stream = ObjectiveStream(n_agents=1, dim=1,
                                 evaluate=lambda i, t, x: float("nan"))
        cfg = OracleConfig.uniform(1, 0.1, 1, rng_seed=1)
        with pytest.raises(OracleError, match="agent 0 at t=7"):
            gradient_free_oracle(stream, cfg, 0, 7, np.zeros(1))

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("dim", [3, 1])
    def test_returns_a_fresh_array_and_leaves_x_alone(self, dim, prefetch):
        # the estimate is written into the fresh direction, so each call
        # must own its direction and never write to the caller's x; t = 2
        # is served from the cached block, t >= 2^32 by the scalar route
        t = 2 if prefetch else 2**32 + 2
        stream = paper_objective_stream(2, dim=dim, coeff_seed=4)
        cfg = OracleConfig.uniform(2, 1e-2, dim, rng_seed=8)
        x = np.array([0.3, -1.1, 2.0][:dim])
        kept = x.tobytes()
        first = gradient_free_oracle(stream, cfg, 1, t, x)
        expected = first.copy()
        first[:] = 7.0
        second = gradient_free_oracle(stream, cfg, 1, t, x)
        xi = sample_direction(cfg, 1, t)
        assert second.tobytes() == expected.tobytes()
        assert not np.shares_memory(second, first) and not np.shares_memory(second, x)
        assert xi.tobytes() == reference_direction(8, 1, t, dim, "gaussian").tobytes()
        assert x.tobytes() == kept

    def test_deterministic_sequences(self):
        stream = norm_stream(2, dim=2)
        cfg = OracleConfig.uniform(2, 1e-2, 2, rng_seed=31)
        x = np.array([0.2, 0.4])
        seq1 = [gradient_free_oracle(stream, cfg, 0, t, x) for t in range(20)]
        seq2 = [gradient_free_oracle(stream, cfg, 0, t, x) for t in range(20)]
        assert all(np.array_equal(a, b) for a, b in zip(seq1, seq2))


class TestSmoothedValue:
    def test_tiny_mu_recovers_value(self):
        stream = norm_stream(1, dim=2)
        x = np.array([1.3, -0.4])
        est, _ = smoothed_value_mc_stats(stream, 0, 0, x, mu=1e-12, n_samples=2000, seed=6)
        assert abs(est - stream.evaluate(0, 0, x)) < 1e-6

    def test_quadratic_closed_form(self):
        # Gaussian smoothing of ||x||^2 adds exactly mu^2 * p
        stream = ObjectiveStream(
            n_agents=1, dim=2,
            evaluate=lambda i, t, x: float(np.asarray(x) @ np.asarray(x)),
            evaluate_batch=lambda i, t, pts: (pts ** 2).sum(axis=1))
        x = np.array([0.7, -0.2])
        mu = 0.3
        est, se = smoothed_value_mc_stats(stream, 0, 0, x, mu, 100_000, seed=42)
        expected = float(x @ x) + mu ** 2 * 2
        assert abs(est - expected) <= 3.0 * se

    def test_sandwich_on_lipschitz_stream(self):
        # f <= f_mu <= f + sqrt(p) mu D for convex D-Lipschitz f
        stream = norm_stream(1, dim=1, scale=1.0)
        mu = 0.05
        rng = np.random.default_rng(3)
        for k in range(5):
            x = rng.uniform(-2, 2, 1)
            f_val = stream.evaluate(0, 0, x)
            est, se = smoothed_value_mc_stats(stream, 0, 0, x, mu, 20_000, seed=50 + k)
            assert f_val - 3 * se <= est <= f_val + math.sqrt(1) * mu * 1.0 + 3 * se

    def test_requires_samples(self):
        stream = norm_stream(1, dim=1)
        with pytest.raises(ValueError):
            smoothed_value_mc_stats(stream, 0, 0, np.zeros(1), 0.1, 0, seed=1)

    def test_deterministic_given_seed(self):
        stream = norm_stream(1, dim=2)
        x = np.array([0.1, 0.9])
        a = smoothed_value_mc_stats(stream, 0, 0, x, 0.2, 500, seed=9)
        b = smoothed_value_mc_stats(stream, 0, 0, x, 0.2, 500, seed=9)
        assert a == b


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
            n_agents=1, dim=2,
            evaluate=lambda i, t, x: fval(np.asarray(x, dtype=float)),
            evaluate_batch=lambda i, t, pts: np.einsum("ki,ij,kj->k", pts, a_mat, pts) + pts @ b_vec)
        mu = 0.01
        cfg = OracleConfig.uniform(1, mu, 2, rng_seed=900)
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
            hi, _ = smoothed_value_mc_stats(stream, 0, 0, x + e, mu, 100_000, seed=1000 + j)
            lo, _ = smoothed_value_mc_stats(stream, 0, 0, x - e, mu, 100_000, seed=2000 + j)
            fd[j] = (hi - lo) / (2 * h)
        assert (np.abs(mean - fd) <= 4.0 * stderr).all()

    def test_second_moment_stays_under_ceiling(self):
        for p in (1, 2, 5):
            stream = norm_stream(1, dim=p, scale=1.0)
            cfg = OracleConfig.uniform(1, 1e-3, p, rng_seed=70 + p)
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

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 6), t=st.integers(0, 10_000), log_scale=st.floats(-3.0, math.log10(50.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_evaluate_equals_the_numpy_scalar_formula(self, dim, t, log_scale, seed):
        # the former expression on numpy scalars, kept as the reference
        stream = paper_objective_stream(7, dim=dim, coeff_seed=seed % 5)
        a, b, c = (np.array(stream.params[k]) for k in "abc")
        x = np.random.default_rng(seed).standard_normal(dim) * 10.0 ** log_scale
        d = tracking_target(t)
        for agent in range(7):
            expected = float(a[agent] * x @ x - 2.0 * b[agent] * d * x.sum() + c[agent] * dim * d * d)
            assert stream.evaluate(agent, t, x).hex() == expected.hex()

    def test_bound_of_other_streams_ignores_radius(self):
        for rho in (1.0, 50.0):
            assert linear_probe_stream(2, scale=3.0).subgradient_bound(rho) == 3.0
            assert norm_stream(2, scale=2.0).subgradient_bound(rho) == 2.0
            assert constant_stream(2).subgradient_bound(rho) == 0.0


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e154, -1e154, 1e200, -1e200, math.inf, -math.inf, math.nan]


def _numpy_paper_cost(stream):
    """The paper cost by the numpy expression of the dim >= 2 route."""
    a, b, c = (np.array(stream.params[k]) for k in "abc")

    def f(agent, t, x):
        d = tracking_target(t)
        with np.errstate(all="ignore"):
            return float(a[agent] * x @ x - 2.0 * b[agent] * d * x.sum() + c[agent] * stream.dim * d * d)
    return f


DIM_ONE_STREAMS = {
    "paper_quadratic": lambda: paper_objective_stream(3, dim=1, coeff_seed=6),
    "linear_probe": lambda: linear_probe_stream(3, dim=1, seed=6, scale=1.7),
    "constant": lambda: constant_stream(3, dim=1, value=-2.5),
    "norm": lambda: norm_stream(3, dim=1, scale=0.7),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestDimOneRoute:
    """At dim 1 the paper stream and the estimator run on Python floats;
    they must keep the bits of the numpy route at every IEEE edge value."""

    @pytest.mark.parametrize("v", EDGE_VALUES, ids=repr)
    def test_paper_evaluate_equals_the_numpy_formula_at_edge_values(self, v):
        stream = paper_objective_stream(7, dim=1, coeff_seed=3)
        expected = _numpy_paper_cost(stream)
        x = np.array([v])
        for agent in range(7):
            for t in (0, 1, 250, 5000):
                assert stream.evaluate(agent, t, x).hex() == expected(agent, t, x).hex()

    def test_paper_evaluate_rejects_more_than_one_coordinate_at_dim_1(self):
        stream = paper_objective_stream(2, dim=1)
        with pytest.raises(ValueError):
            stream.evaluate(0, 3, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("v", EDGE_VALUES, ids=repr)
    @pytest.mark.parametrize("name", sorted(DIM_ONE_STREAMS))
    def test_oracle_equals_the_numpy_estimator_at_edge_values(self, name, v):
        # the other built-in streams evaluate by numpy at every dim
        stream = DIM_ONE_STREAMS[name]()
        f = _numpy_paper_cost(stream) if name == "paper_quadratic" else stream.evaluate
        x = np.array([v])
        for mu in (1e-3, 0.5, 1e150):
            cfg = OracleConfig.uniform(3, mu, 1, rng_seed=6)
            for agent, t in ((0, 0), (2, 9), (1, 2**32 + 1)):
                xi = sample_direction(cfg, agent, t)
                f_shift, f_base = f(agent, t, x + mu * xi), f(agent, t, x)
                if math.isfinite(f_shift) and math.isfinite(f_base):
                    with np.errstate(all="ignore"):
                        expected = (f_shift - f_base) / mu * xi
                    assert gradient_free_oracle(stream, cfg, agent, t, x).tobytes() == expected.tobytes()
                else:
                    with pytest.raises(OracleError, match=f"agent {agent} at t={t}"):
                        gradient_free_oracle(stream, cfg, agent, t, x)


def _time_dependent_stream(n_agents, dim):
    """A stream with no aggregate hook, so aggregate_cost takes its loop."""
    return ObjectiveStream(
        n_agents=n_agents, dim=dim,
        evaluate=lambda agent, t, x: float((agent + 1) * (x @ x) - math.cos(t) * x.sum()))


BLOCK_STREAMS = {
    **{f"paper_dim{p}": lambda p=p: paper_objective_stream(5, dim=p, coeff_seed=p)
       for p in range(1, 7)},
    "linear_probe": lambda: linear_probe_stream(5, dim=3, seed=2),
    "constant": lambda: constant_stream(5, dim=2, value=1.3),
    "no_hook": lambda: _time_dependent_stream(5, 2),
}


class TestNormStream:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 7), scale=st.floats(0.1, 10.0), log_scale=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_evaluate_equals_scaled_linalg_norm(self, dim, scale, log_scale, seed):
        stream = norm_stream(1, dim=dim, scale=scale)
        for x in np.random.default_rng(seed).standard_normal((20, dim)) * 10.0 ** log_scale:
            assert stream.evaluate(0, 0, x).hex() == float(scale * np.linalg.norm(x)).hex()

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_batch_hook_equals_per_row_evaluate(self, dim):
        # smoothed_value_mc_stats must not depend on whether the hook is set
        stream = norm_stream(1, dim=dim, scale=1.7)
        rng = np.random.default_rng(dim)
        points = rng.standard_normal((3000, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (3000, 1))
        rows = np.array([stream.evaluate(0, 0, p) for p in points])
        assert stream.evaluate_batch(0, 0, points).tobytes() == rows.tobytes()


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

    def test_constant_value_kwarg(self):
        stream = make_stream("constant", 3, 2, seed=0, value=7.0)
        assert stream.evaluate(0, 0, np.zeros(2)) == 7.0
