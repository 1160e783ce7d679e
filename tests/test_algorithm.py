import dataclasses
import errno
import json
import math
import os
import re
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rgfopt as r
from rgfopt import algorithm, oracle
from rgfopt.algorithm import (
    Ball,
    Box,
    ConfigError,
    RunConfig,
    SimulationError,
    csv_text,
)
from rgfopt.experiments import experiment_fig2_3
from rgfopt.graph import WeightPair, build_augmented, equal_neighbor_weights, make_cycle
from rgfopt.oracle import (
    ObjectiveStream,
    OracleConfig,
    constant_stream,
    gradient_free_oracle,
    linear_probe_stream,
    sample_direction,
)

from conftest import edge_set_law


class TestProjection:
    def test_box_clamps(self):
        box = Box(-5.0, 5.0, 1)
        assert box.project(np.array([7.0]))[0] == 5.0
        assert box.project(np.array([3.0]))[0] == 3.0
        assert box.project(np.array([-9.0]))[0] == -5.0

    def test_ball_radial_scaling(self):
        ball = Ball(np.zeros(2), 1.0)
        out = ball.project(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_interior_points_fixed(self):
        ball = Ball(np.zeros(3), 2.0)
        v = np.array([0.5, -0.5, 1.0])
        assert np.array_equal(ball.project(v), v)

    @pytest.mark.parametrize("feasible", [Box(-2.0, 3.0, 4), Ball(np.array([1.0, -1.0, 0.0, 2.0]), 1.5)])
    def test_idempotent(self, feasible):
        rng = np.random.default_rng(5)
        v = rng.uniform(-10, 10, (100, 4))
        once = feasible.project(v)
        assert np.allclose(feasible.project(once), once, atol=1e-12)
        assert feasible.contains(once)

    @pytest.mark.parametrize("feasible", [Box(-5.0, 5.0, 3), Ball(np.zeros(3), 2.0)])
    def test_nonexpansive_on_random_pairs(self, feasible):
        rng = np.random.default_rng(11)
        u = rng.uniform(-20, 20, (1000, 3))
        v = rng.uniform(-20, 20, (1000, 3))
        du = feasible.project(u) - feasible.project(v)
        assert (np.linalg.norm(du, axis=1) <= np.linalg.norm(u - v, axis=1) + 1e-12).all()

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 6), lo=st.floats(-50.0, 50.0), width=st.floats(1e-3, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_box_idempotent_and_nonexpansive(self, dim, lo, width, seed):
        self._check_projection(Box(lo, lo + width, dim), dim, seed)

    @settings(max_examples=150, deadline=None)
    @given(center=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
           radius=st.floats(1e-3, 100.0), seed=st.integers(0, 2**32 - 1))
    def test_ball_idempotent_and_nonexpansive(self, center, radius, seed):
        self._check_projection(Ball(np.array(center), radius), len(center), seed)

    @staticmethod
    def _check_projection(feasible, dim, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.uniform(-300.0, 300.0, (2, 64, dim))
        once = feasible.project(u)
        scale = 1e-12 * (1.0 + feasible.radius)
        assert feasible.contains(once)
        assert np.allclose(feasible.project(once), once, rtol=0.0, atol=scale)
        moved = np.linalg.norm(once - feasible.project(v), axis=1)
        assert (moved <= np.linalg.norm(u - v, axis=1) * (1.0 + 1e-12) + scale).all()

    _SPECIALS = np.concatenate([
        [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0],
        np.array([0x7FF8000000000123, 0xFFF0000000000001], dtype=np.uint64).view(np.float64)])

    @settings(max_examples=150, deadline=None)
    @given(bounds=st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0),
                                   (-math.inf, 0.0), (0.0, math.inf), (-5.0, 5.0), (1.0, 2.0),
                                   (-5e-324, 5e-324)]),
           shape=st.sampled_from([(1,), (3,), (17,), (10, 1), (40, 3)]), seed=st.integers(0, 2**32 - 1))
    def test_box_project_equals_clip(self, bounds, shape, seed):
        # special values, signed zeros on zero bounds and nan payloads included
        rng = np.random.default_rng(seed)
        pool = np.concatenate([self._SPECIALS, rng.standard_normal(12) * 3.0])
        v = rng.choice(pool, shape)
        got = Box(*bounds, dim=shape[-1]).project(v)
        assert got.tobytes() == np.clip(v, *bounds).tobytes()

    def test_ball_projects_overflowing_offsets_onto_the_boundary(self):
        h = math.sqrt(0.5)
        errstate = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # project silences numpy's overflow warnings
            got = Ball(np.zeros(2), 1.0).project(
                np.array([[1e300, 1e300], [np.inf, 0.0], [-np.inf, np.inf], [3.0, 4.0]]))
            one = Ball(np.array([1.0, -2.0, 0.5]), 2.0).project(np.array([-1e200, 1e200, 5.0]))
        assert np.allclose(got, [[h, h], [1.0, 0.0], [-h, h], [0.6, 0.8]], rtol=0.0, atol=1e-15)
        assert np.allclose(one, [1.0 - math.sqrt(2.0), math.sqrt(2.0) - 2.0, 0.5])
        assert np.geterr() == errstate

    @settings(max_examples=150, deadline=None)
    @given(center=st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=5),
           radius=st.floats(1e-300, 1e300), exponent=st.integers(-300, 150),
           huge_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_ball_keeps_the_bits_of_finite_norm_rows(self, center, radius, exponent, huge_row,
                                                    seed):
        c = np.array(center)
        v = c + np.random.default_rng(seed).standard_normal((20, c.size)) * 10.0 ** exponent
        with warnings.catch_warnings():
            # radius / norm overflows in the branch np.where drops, and
            # numpy's norm of the huge row overflows
            warnings.simplefilter("ignore", RuntimeWarning)
            offset = v - c
            norms = np.linalg.norm(offset, axis=-1, keepdims=True)
            expected = c + offset * np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
            if huge_row:  # an overflowing row does not disturb the others
                v[0] = 1e300
            got = Ball(c, radius).project(v)
        assert got[huge_row:].tobytes() == expected[huge_row:].tobytes()

    def test_box_validation(self):
        with pytest.raises(ConfigError):
            Box(2.0, -2.0, 1)

    def test_radius_values(self):
        assert Box(-5.0, 5.0, 1).radius == 5.0
        assert Box(-5.0, 5.0, 4).radius == pytest.approx(10.0)
        assert Ball(np.array([3.0, 4.0]), 1.0).radius == pytest.approx(6.0)

    def test_ball_uniform_sampling_inside(self):
        ball = Ball(np.array([1.0, 0.0]), 2.0)
        rng = np.random.default_rng(2)
        pts = ball.sample_uniform(rng, (50, 2))
        assert ball.contains(pts)

    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_ball_sampling_is_uniform_in_volume(self, p):
        # half a p-ball's volume lies within r 2^(-1/p) of its centre, and
        # its mean is the centre
        ball = Ball(np.full(p, 0.5), 2.0)
        offsets = ball.sample_uniform(np.random.default_rng(p), (4000, p)) - ball.center
        assert ball.contains(offsets + ball.center)
        inner = np.linalg.norm(offsets, axis=1) <= 2.0 * 2.0 ** (-1.0 / p)
        assert abs(inner.mean() - 0.5) < 0.03
        assert np.abs(offsets.mean(axis=0)).max() < 0.1

    def test_high_dimensional_ball_run_finishes(self):
        # a draw from the bounding cube lands in the 30-ball with probability 2e-14
        trace = r.run(RunConfig(feasible_kind="ball", dim=30, horizon=2, check_delta_bound=False))
        assert Ball(np.zeros(30), 5.0).contains(trace.x)


def _schedule(kind, gamma0=1.0):
    return RunConfig(schedule_kind=kind, gamma0=gamma0).step_size


class TestSchedules:
    def test_inv_sqrt_formula(self):
        sched = _schedule("inv_sqrt", 2.0)
        for t in (0, 1, 8, 99):
            assert sched(t) == pytest.approx(2.0 / math.sqrt(t + 1))

    def test_constant(self):
        sched = _schedule("constant", 0.3)
        assert sched(0) == sched(1000) == 0.3

    def test_positive_and_nonincreasing(self):
        for sched in (_schedule("inv_sqrt", 1.0), _schedule("constant", 0.5)):
            vals = [sched(t) for t in range(50)]
            assert all(v > 0 for v in vals)
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_invalid_schedules_rejected(self):
        # rejected when the RunConfig is built
        with pytest.raises(ConfigError):
            _schedule("geometric")
        with pytest.raises(ConfigError):
            _schedule("table")
        with pytest.raises(ConfigError):
            _schedule("inv_sqrt", 0.0)
        with pytest.raises(ConfigError):
            _schedule("constant", -0.1)


def _setup(n=6, dim=1, stream=None, delta=0.05, seed=0):
    g = make_cycle(n)
    wp = equal_neighbor_weights(g)
    stream = stream or constant_stream(n, dim)
    cfg = OracleConfig.uniform(n, 1e-4, dim, rng_seed=seed)
    feasible = Box(-10.0, 10.0, dim)
    return wp, stream, cfg, feasible, delta


def _round(x, y, wp, delta, gamma_t, stream, cfg, t, feasible):
    """One call of run()'s round function on plain (N, p) arrays; returns the
    new x and y, the oracle estimates g and the projection residuals theta."""
    g, theta = np.empty_like(x), np.empty_like(x)
    x, y = algorithm._advance(x, y, wp, delta, gamma_t, stream, cfg, t, feasible, g, theta)
    return x, y, g, theta


class TestRound:
    def test_consensus_fixed_point(self):
        wp, stream, cfg, feasible, delta = _setup()
        x = np.full((6, 1), 1.7)
        x, y, _, _ = _round(x, np.zeros((6, 1)), wp, delta, 0.5, stream, cfg, 0, feasible)
        assert np.allclose(x, 1.7, atol=1e-15)
        assert np.allclose(y, 0.0, atol=1e-15)

    def test_mean_conservation_each_step(self):
        # (1/N) sum phi(t+1) - (1/N) sum phi(t) == (1/N) sum theta(t)
        wp, _, cfg, feasible, delta = _setup(n=8, dim=2, seed=4)
        stream = linear_probe_stream(8, dim=2, seed=9, scale=2.0)
        cfg = OracleConfig.uniform(8, 1e-4, 2, rng_seed=4)
        rng = np.random.default_rng(1)
        x, y = rng.uniform(-5, 5, (8, 2)), np.zeros((8, 2))
        for t in range(50):
            before = (x.sum(axis=0) + y.sum(axis=0)) / 8
            x, y, _, theta = _round(x, y, wp, delta, 1.0 / math.sqrt(t + 1), stream, cfg, t,
                                    feasible)
            lhs = (x.sum(axis=0) + y.sum(axis=0)) / 8 - before
            rhs = theta.sum(axis=0) / 8
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_pure_consensus_matches_matrix_powers(self):
        # with a constant stream the round is exactly linear, so the stacked
        # state must equal W^t phi(0); the decisions converge to the initial
        # decision average since surpluses start at zero
        wp, stream, cfg, feasible, delta = _setup(n=10, delta=0.01)
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-5, 5, (10, 1))
        x, y = x0, np.zeros((10, 1))
        w_aug = build_augmented(wp, delta).w_aug
        phi0 = np.vstack([x0, np.zeros((10, 1))])
        snapshots = {}
        for t in range(2000):
            x, y, _, _ = _round(x, y, wp, delta, 1.0 / math.sqrt(t + 1), stream, cfg, t, feasible)
            if t + 1 in (1, 5, 50, 500, 2000):
                snapshots[t + 1] = x
        for t, x_t in snapshots.items():
            ref = (np.linalg.matrix_power(w_aug, t) @ phi0)[:10]
            assert np.abs(x_t - ref).max() < 1e-10
        spread = np.abs(x - x.mean()).max()
        assert spread < 1e-10
        assert np.allclose(x, x0.mean(), atol=1e-10)

    def test_nonfinite_state_reported_with_context(self):
        # a corrupted surplus propagates through the linear update and must
        # surface as an explicit failure naming the agent
        wp, stream, cfg, feasible, delta = _setup(n=4)
        y = np.zeros((4, 1))
        y[2, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(SimulationError, match="agent"):
                _round(np.zeros((4, 1)), y, wp, delta, 1.0, stream, cfg, 0, feasible)


    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_any_nonfinite_entry_is_reported(self, dim, where, value):
        wp, stream, cfg, feasible, delta = _setup(n=5, dim=dim)
        arrays = {"x": np.zeros((5, dim)), "y": np.zeros((5, dim))}
        arrays[where][3, dim - 1] = value
        with np.errstate(invalid="ignore"), pytest.raises(SimulationError, match="agent"):
            _round(arrays["x"], arrays["y"], wp, delta, 1.0, stream, cfg, 0, feasible)


    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 200), p=st.integers(1, 12), axis=st.sampled_from([1, 0]),
           density=st.floats(0.0, 1.0), equal=st.booleans(), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e-310, 1e-320, 1e200]),
           specials=st.lists(st.tuples(st.integers(0, 2400), st.sampled_from(
               [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310, 1e200, -1e200])), max_size=30))
    def test_dot_mixing_has_the_bytes_of_matmul(self, n, p, axis, density, equal, seed, scale,
                                                specials):
        # the round mixes with W_r.dot(x) and W_c.dot(y); a numpy or BLAS
        # upgrade that routes them apart from `@` would change pinned bytes
        rng = np.random.default_rng(seed)
        w = np.where(rng.random((n, n)) < density, 1.0 if equal else rng.random((n, n)), 0.0)
        np.fill_diagonal(w, 1.0)
        w /= w.sum(axis=axis, keepdims=True)  # row-stochastic at axis 1, column- at 0
        x = rng.standard_normal((n, p)) * scale
        for k, value in specials:
            x.flat[k % x.size] = value
        assert w.dot(x).tobytes() == (w @ x).tobytes()


class TestThetaResidual:
    def test_interior_step_equals_oracle_term(self):
        # no clipping inside a huge box: theta = -gamma * g exactly
        n, dim = 5, 2
        wp = equal_neighbor_weights(make_cycle(n))
        stream = linear_probe_stream(n, dim=dim, seed=2, scale=1.0)
        cfg = OracleConfig.uniform(n, 1e-3, dim, rng_seed=8)
        feasible = Box(-100.0, 100.0, dim)
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, (n, dim)), np.zeros((n, dim))
        gamma = 0.2
        t = 0
        x_after, _, g_step, theta = _round(x, y, wp, 0.05, gamma, stream, cfg, t, feasible)
        g = np.stack([gradient_free_oracle(stream, cfg, i, t, x[i]) for i in range(n)])
        assert np.array_equal(g_step, g)
        assert np.allclose(theta, -gamma * g, atol=1e-12)
        assert np.allclose(theta, x_after - wp.w_row @ x - 0.05 * y, atol=1e-15)

    def test_constant_stream_zero_surplus_gives_zero(self):
        wp, stream, cfg, feasible, delta = _setup(n=4)
        _, _, _, theta = _round(np.full((4, 1), 0.3), np.zeros((4, 1)), wp, delta, 1.0, stream,
                                cfg, 0, feasible)
        assert np.allclose(theta, 0.0, atol=1e-15)
        assert np.linalg.norm(theta, axis=1).sum() == 0.0

    def test_per_step_residual_bound(self):
        # ||theta^i|| <= gamma ||g^i|| + 2 delta ||y^i|| at every step
        config = RunConfig(horizon=150, master_seed=5, check_delta_bound=False)
        trace = r.run(config)
        theta_norm = np.linalg.norm(trace.theta, axis=2)
        y_norm = np.linalg.norm(trace.y[:-1], axis=2)
        bound = trace.gamma[:, None] * trace.g_norm + 2 * config.delta * y_norm
        assert (theta_norm <= bound + 1e-12).all()


class TestRun:
    def test_zero_horizon_gives_initial_state_only(self):
        trace = r.run(RunConfig(horizon=0, master_seed=1, check_delta_bound=False))
        assert trace.x.shape == (1, 10, 1)
        assert trace.gamma.shape == (0,)
        assert trace.spread.shape == (1,)

    def test_bitwise_deterministic(self):
        config = RunConfig(horizon=120, master_seed=9, check_delta_bound=False)
        t1 = r.run(config)
        t2 = r.run(config)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.y, t2.y)
        assert np.array_equal(t1.cost, t2.cost)
        assert t1.to_csv_text() == t2.to_csv_text()

    def test_feasibility_every_step(self):
        trace = r.run(RunConfig(horizon=200, master_seed=2, check_delta_bound=False))
        assert (trace.x >= -5.0 - 1e-12).all() and (trace.x <= 5.0 + 1e-12).all()

    def test_gamma_matches_schedule(self):
        trace = r.run(RunConfig(horizon=50, master_seed=2, gamma0=2.0, check_delta_bound=False))
        expected = 2.0 / np.sqrt(np.arange(50) + 1.0)
        assert np.allclose(trace.gamma, expected, rtol=1e-15)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            r.run(RunConfig(delta=0.0))
        with pytest.raises(ConfigError):
            r.run(RunConfig(horizon=-1))
        with pytest.raises(ConfigError):
            r.run(RunConfig(mu_hat=-1e-4))
        with pytest.raises(ConfigError):
            r.run(RunConfig(stream_name="nope", check_delta_bound=False))
        with pytest.raises(ConfigError):
            r.run(RunConfig(graph_kind="torus"))

    @pytest.mark.parametrize("field, value, message", [
        ("graph_kind", "torus", "unknown graph kind 'torus'"),
        ("weight_rule", "metropolis", "unknown weight rule 'metropolis'")])
    def test_validate_rejects_unknown_graph_kind_and_weight_rule(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{field: value}).validate()

    @pytest.mark.parametrize("fields, message", [
        ({"feasible_lo": 2.0, "feasible_hi": 2.0}, r"box needs lo < hi, got \[2.0, 2.0\]"),
        ({"feasible_lo": 3.0, "feasible_hi": -3.0}, "box needs lo < hi"),
        ({"feasible_kind": "ball", "ball_radius": 0.0}, "ball radius must be positive, got 0.0"),
        ({"feasible_kind": "ball", "ball_radius": -1.0}, "ball radius must be positive"),
        ({"feasible_kind": "simplex"}, "unknown feasible kind 'simplex'"),
        ({"stream_name": "nope"}, r"unknown stream 'nope'; registered: \["),
    ], ids=["box_tie", "box_reversed", "ball_zero", "ball_negative", "feasible_kind",
            "stream_name"])
    def test_feasible_set_and_stream_rejected_when_the_config_is_built(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**fields)

    def test_nan_stream_raises_simulation_error(self):
        stream = ObjectiveStream(
            n_agents=10, dim=1,
            evaluate=lambda i, t, x: float("nan") if t >= 3 else float(np.sum(x) ** 2),
            aggregate_evaluate=lambda t, pts: (pts ** 2).sum(axis=1) * 10)
        config = RunConfig(horizon=10, master_seed=0, check_delta_bound=False)
        with pytest.raises(SimulationError, match="t=3"):
            r.run(config, stream=stream)

    def test_gain_ceiling_warning_recorded(self):
        with pytest.warns(RuntimeWarning):
            trace = r.run(RunConfig(horizon=5, master_seed=0, check_delta_bound=True))
        assert any("ceiling" in w for w in trace.warnings)
        assert trace.delta_hat_value < 1e-20

    def test_divergent_gain_flagged_on_one_way_cycle(self):
        # one-way cycles are spectrally unstable at gain 0.1
        with pytest.warns(RuntimeWarning):
            trace = r.run(RunConfig(graph_kind="cycle", horizon=5, master_seed=0))
        assert any("diverge" in w or "unstable" in w for w in trace.warnings)

    def test_metadata_round_trip(self):
        config = RunConfig(horizon=30, master_seed=4, check_delta_bound=False)
        trace = r.run(config)
        rebuilt = RunConfig.from_dict(trace.metadata()["config"])
        assert rebuilt == config
        trace2 = r.run(rebuilt)
        assert np.array_equal(trace.x, trace2.x)

    @pytest.mark.parametrize("kind", sorted(algorithm.GRAPH_KINDS))
    def test_metadata_lists_the_sorted_edges_of_the_run_graph(self, kind):
        config = RunConfig(n_agents=7, graph_kind=kind, graph_seed=3, extra_edge_prob=0.4,
                           horizon=0, check_delta_bound=False)
        trace = r.run(config)
        law = edge_set_law(kind, 7, prob=0.4, seed=3)
        # JSON-ready Python ints, in the order of the sorted edge list
        assert json.dumps(trace.metadata()["graph_edges"]) == json.dumps(sorted(map(list, law)))
        assert np.array_equal(trace.graph.adjacency, algorithm.make_graph(kind, 7, 3, 0.4).adjacency)

    def test_numpy_integers_accepted(self):
        config = RunConfig(n_agents=np.int64(4), horizon=np.int32(3), master_seed=np.uint8(1),
                           delta=np.float64(0.05), record_oracle=np.bool_(False))
        config.validate()
        # to_dict hands back plain Python scalars, which JSON can write
        data = config.to_dict()
        assert {k: type(v) for k, v in data.items()} == \
            {f.name: type(getattr(RunConfig(), f.name)) for f in dataclasses.fields(RunConfig)}
        assert RunConfig.from_dict(json.loads(json.dumps(data))) == config

    def test_post_loop_recording_equals_per_step_reference(self):
        config = RunConfig(n_agents=4, dim=3, feasible_kind="ball", ball_radius=2.0,
                           direction_law="uniform_sphere", horizon=60, master_seed=12,
                           check_delta_bound=False)
        trace = r.run(config)
        stream = r.make_stream(config.stream_name, 4, 3, config.master_seed)
        cfg = OracleConfig.uniform(4, config.mu_hat, 3, direction_law="uniform_sphere",
                                   rng_seed=config.master_seed)
        cost = np.stack([stream.aggregate_cost(t, trace.x[t]) for t in range(61)])
        x_star = np.stack([stream.analytic_minimizer(t) for t in range(61)])
        g_norm = np.stack([np.linalg.norm([gradient_free_oracle(stream, cfg, i, t, trace.x[t, i])
                                           for i in range(4)], axis=1) for t in range(60)])
        assert trace.cost.tobytes() == cost.tobytes()
        assert trace.x_star.tobytes() == x_star.tobytes()
        assert trace.g_norm.tobytes() == g_norm.tobytes()

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"horizon": 5, "bogus": 1})


def _trace_bytes(trace):
    arrays = (trace.x, trace.y, trace.cost, trace.spread, trace.gamma, trace.g_norm, trace.theta)
    return [a.tobytes() for a in arrays] + [trace.to_csv_text()]


# Beyond the pinned digests' dim-1, seed-0 reach; 450 steps of 10 agents
# end inside the third block of directions.
PREFETCH_CONFIGS = {
    "dim3": RunConfig(dim=3, horizon=450, master_seed=3, check_delta_bound=False),
    "sphere": RunConfig(direction_law="uniform_sphere", dim=2, horizon=450, master_seed=4,
                        check_delta_bound=False),
    "wide_seed": RunConfig(master_seed=2**32 + 5, horizon=450, check_delta_bound=False),
    "few_agents": RunConfig(n_agents=3, horizon=700, master_seed=6, check_delta_bound=False),
}


class TestPrefetchedRun:
    @pytest.mark.parametrize("name", sorted(PREFETCH_CONFIGS))
    def test_trace_bytes_equal_scalar_draws(self, name, scalar_direction_blocks):
        config = PREFETCH_CONFIGS[name]
        steps_per_block = oracle._BLOCK_KEYS // config.n_agents
        assert config.horizon > steps_per_block and config.horizon % steps_per_block
        blocks = _trace_bytes(r.run(config))
        scalar_direction_blocks()
        assert blocks == _trace_bytes(r.run(config))

    def test_runs_of_other_configs_between_do_not_change_a_run(self):
        # each run draws through a config object of its own, so the block the
        # previous run left in this thread is never served to the next one
        a = PREFETCH_CONFIGS["dim3"]
        b = RunConfig(n_agents=4, dim=2, horizon=300, master_seed=9, check_delta_bound=False)
        first_a, first_b = _trace_bytes(r.run(a)), _trace_bytes(r.run(b))
        assert _trace_bytes(r.run(a)) == first_a
        assert _trace_bytes(r.run(b)) == first_b

    def test_threads_match_single_threaded_results(self):
        configs = [RunConfig(dim=2, horizon=300, master_seed=8, check_delta_bound=False),
                   RunConfig(dim=1, horizon=300, master_seed=9, check_delta_bound=False)]
        expected = [_trace_bytes(r.run(c)) for c in configs]
        # the third thread draws the first run's keys on the scalar route
        cfg = OracleConfig.uniform(10, 0.1, 2, rng_seed=8)
        keys = [(agent, t) for t in range(300) for agent in range(10)]
        scalar = {k: sample_direction(cfg, *k) for k in keys}
        got, drawn, errors = [None, None], {}, []

        def run_config(i):
            try:
                got[i] = _trace_bytes(r.run(configs[i]))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def draw_keys():
            try:
                for k in keys:
                    drawn[k] = sample_direction(cfg, *k)
            except Exception as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run_config, args=(0,)),
                       threading.Thread(target=run_config, args=(1,)),
                       threading.Thread(target=draw_keys)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert got == expected
        assert all(drawn[k].tobytes() == scalar[k].tobytes() for k in keys)


def _written_out_round(x, y, wp, delta, gamma_t, stream, cfg, t, feasible):
    """The round law written out without `_advance`, on new arrays at every
    step.  Returns what `_round` returns."""
    g = np.stack([gradient_free_oracle(stream, cfg, i, t, x_i) for i, x_i in enumerate(x)])
    mixed = wp.w_row @ x
    delta_y = delta * y
    x_new = feasible.project(mixed + delta_y - gamma_t * g)
    y_new = wp.w_col @ y - mixed + x - delta_y
    return x_new, y_new, g, (x_new - mixed) - delta_y


def _round_loop(config, step=_round):
    """run()'s set-up followed by one direct call of a round function per
    step.  With `_round`, both advance through `_advance`, so comparing them
    checks run()'s own bookkeeping: history rows, the scratch row of
    unrecorded estimates and the step sizes.  Returns the stacked x, y, g,
    theta and gamma."""
    n, p = config.n_agents, config.dim
    wp = equal_neighbor_weights(algorithm.make_graph(config.graph_kind, n, config.graph_seed,
                                                     config.extra_edge_prob))
    stream = r.make_stream(config.stream_name, n, p, config.master_seed)
    feasible = config.feasible_set()
    cfg = OracleConfig.uniform(n, config.mu_hat, p, direction_law=config.direction_law,
                               rng_seed=config.master_seed)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.master_seed, spawn_key=(algorithm._DOMAIN_INIT,)))
    x, y = feasible.sample_uniform(rng, (n, p)), np.zeros((n, p))
    xs, ys, gs, thetas, gammas = [x], [y], [], [], []
    for t in range(config.horizon):
        gammas.append(config.step_size(t))
        x, y, g, theta = step(x, y, wp, config.delta, gammas[-1], stream, cfg, t, feasible)
        xs.append(x)
        ys.append(y)
        gs.append(g)
        thetas.append(theta)
    return {"x": np.array(xs), "y": np.array(ys), "g": np.array(gs), "theta": np.array(thetas),
            "gamma": np.array(gammas)}


# one config with each recording switch off
LOOP_CONFIGS = {
    "surplus_unrecorded": RunConfig(dim=2, graph_kind="ring", feasible_kind="ball",
                                    ball_radius=3.0, horizon=60, master_seed=2,
                                    record_surplus=False),
    "oracle_unrecorded": RunConfig(n_agents=5, dim=3, graph_kind="cycle", feasible_lo=-1.0,
                                   feasible_hi=2.0, horizon=60, master_seed=3,
                                   record_oracle=False),
}


# run() against the round law written out: a ring of 200 agents, a dim-3
# box, a dim-2 ball and sphere directions
WRITTEN_OUT_CONFIGS = {
    "ring200": RunConfig(n_agents=200, graph_kind="ring", horizon=25, master_seed=1,
                         check_delta_bound=False),
    "box_dim3": RunConfig(dim=3, feasible_lo=-1.0, feasible_hi=0.5, horizon=80, master_seed=4,
                          check_delta_bound=False),
    "ball_dim2": RunConfig(dim=2, feasible_kind="ball", ball_radius=0.8, horizon=80,
                           master_seed=6, check_delta_bound=False),
    "sphere": RunConfig(n_agents=7, dim=4, direction_law="uniform_sphere", horizon=80,
                        master_seed=8, check_delta_bound=False),
}


class TestPlainArrayLoop:
    @pytest.mark.parametrize("name", sorted(LOOP_CONFIGS))
    def test_run_keeps_the_rows_of_a_round_loop(self, name):
        config = dataclasses.replace(LOOP_CONFIGS[name], check_delta_bound=False)
        trace, ref = r.run(config), _round_loop(config)
        assert trace.x.tobytes() == ref["x"].tobytes()
        assert trace.gamma.tobytes() == ref["gamma"].tobytes()
        assert (trace.y is None) == (not config.record_surplus)
        if trace.y is not None:
            assert trace.y.tobytes() == ref["y"].tobytes()
        assert (trace.theta is None) == (not config.record_oracle)
        if trace.theta is not None:
            assert trace.theta.tobytes() == ref["theta"].tobytes()
            assert trace.g_norm.tobytes() == np.linalg.norm(ref["g"], axis=2).tobytes()

    @pytest.mark.parametrize("kind, n", [("random", 10), ("ring", 50)])
    def test_f_ordered_weights_mix_with_the_bits_of_their_c_ordered_copy(self, kind, n):
        # dgemv sums W_r x in another order for an F-ordered W_r, so the
        # weight pair must hold C order whatever order it is given
        def fortran_round(x, y, wp, *rest):
            wp_f = WeightPair(w_row=np.asfortranarray(wp.w_row), w_col=np.asfortranarray(wp.w_col))
            return _round(x, y, wp_f, *rest)

        config = RunConfig(n_agents=n, graph_kind=kind, horizon=30, master_seed=1,
                           check_delta_bound=False)
        ref, got = _round_loop(config), _round_loop(config, step=fortran_round)
        assert {k: got[k].tobytes() for k in got} == {k: ref[k].tobytes() for k in ref}

    @pytest.mark.parametrize("name", sorted(WRITTEN_OUT_CONFIGS))
    def test_run_equals_the_round_law_written_out(self, name):
        config = WRITTEN_OUT_CONFIGS[name]
        trace, ref = r.run(config), _round_loop(config, step=_written_out_round)
        n, p = config.n_agents, config.dim
        stream = r.make_stream(config.stream_name, n, p, config.master_seed)
        ts = np.repeat(np.arange(config.horizon + 1), n)
        cost = stream.aggregate_cost(ts, ref["x"].reshape(-1, p)).reshape(-1, n)
        assert trace.x.tobytes() == ref["x"].tobytes()
        assert trace.y.tobytes() == ref["y"].tobytes()
        assert trace.g_norm.tobytes() == np.linalg.norm(ref["g"], axis=2).tobytes()
        assert trace.theta.tobytes() == ref["theta"].tobytes()
        assert trace.cost.tobytes() == cost.tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_estimates_never_alias_the_state(self, dim):
        n = 6
        stream = r.make_stream("paper_quadratic", n, dim, 2)
        cfg = OracleConfig.uniform(n, 0.1, dim, rng_seed=2)
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (n, dim))
        before = x.tobytes()
        for t in range(3):
            for i, x_i in enumerate(list(x)):
                g = gradient_free_oracle(stream, cfg, i, t, x_i)
                assert not np.shares_memory(g, x)
                g[...] = 123.0
                assert x.tobytes() == before
                # nor the block that served the direction
                assert sample_direction(cfg, i, t).tobytes() != g.tobytes()
        y, g, theta = np.zeros((n, dim)), np.empty((n, dim)), np.empty((n, dim))
        wp = equal_neighbor_weights(make_cycle(n))
        x_new, _ = algorithm._advance(x, y, wp, 0.05, 0.5, stream, cfg, 0,
                                      Box(-5.0, 5.0, dim), g, theta)
        after = x_new.tobytes()
        g[...] = theta[...] = 123.0
        assert x.tobytes() == before
        assert x_new.tobytes() == after != before

    @pytest.mark.parametrize("kind", ["inv_sqrt", "constant"])
    def test_gamma_has_the_bits_of_the_scalar_schedule(self, kind):
        config = RunConfig(schedule_kind=kind, gamma0=0.7, horizon=300, check_delta_bound=False)
        scalar = [0.7 / math.sqrt(t + 1.0) if kind == "inv_sqrt" else 0.7 for t in range(300)]
        assert r.run(config).gamma.tobytes() == np.array(scalar).tobytes()
        assert np.array([config.step_size(t) for t in range(300)]).tobytes() == \
            np.array(scalar).tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_x_star_bytes_equal_the_per_step_minimizers(self, dim):
        trace = r.run(RunConfig(n_agents=4, dim=dim, horizon=300, master_seed=2,
                                check_delta_bound=False))
        ref = np.array([np.full(dim, oracle.tracking_target(t)) for t in range(301)])
        assert trace.x_star.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("minimizer", [lambda t: 0.25 * t, lambda t: np.array(0.25 * t)],
                             ids=["float", "0-d array"])
    def test_scalar_minimizer_at_dim_one(self, minimizer):
        # a dim-1 plug-in stream may return its minimizer as a scalar
        stream = ObjectiveStream(n_agents=10, dim=1, evaluate=lambda i, t, x: float(x[0] ** 2),
                                 aggregate_evaluate=lambda t, pts: (pts ** 2).sum(axis=1) * 10,
                                 analytic_minimizer=minimizer)
        trace = r.run(RunConfig(horizon=20, check_delta_bound=False), stream=stream)
        assert trace.x_star.tobytes() == (0.25 * np.arange(21.0)).reshape(21, 1).tobytes()

    def test_nonfinite_surplus_names_agents_and_step(self):
        # surplus coupling diverges on a one-way cycle at a large gain
        config = RunConfig(n_agents=4, graph_kind="cycle", delta=5.0, horizon=3000,
                           check_delta_bound=False)
        with np.errstate(all="ignore"), pytest.raises(SimulationError) as err:
            r.run(config)
        assert str(err.value) == "non-finite state for agent(s) [0, 1, 2, 3] after step t=441"
        assert err.value.__cause__ is None

    def test_oracle_error_is_wrapped_with_its_step(self):
        stream = ObjectiveStream(n_agents=10, dim=1,
                                 evaluate=lambda i, t, x: math.nan if t >= 3 else float(x[0] ** 2),
                                 aggregate_evaluate=lambda t, pts: (pts ** 2).sum(axis=1) * 10)
        with pytest.raises(SimulationError) as err:
            r.run(RunConfig(horizon=10, check_delta_bound=False), stream=stream)
        assert str(err.value) == ("step failed at t=3: non-finite objective value for agent 0 "
                                  "at t=3: f(x+mu*xi)=nan, f(x)=nan")
        assert isinstance(err.value.__cause__, oracle.OracleError)

    def test_underflowing_step_size_fails_validation(self):
        # 5e-324 / sqrt(t + 1) rounds to 0.0 from t = 3 on
        with pytest.raises(ConfigError, match=r"^gamma0=5e-324 is too small: the inv_sqrt step "
                                              r"size rounds to 0\.0 by t=3$"):
            r.run(RunConfig(gamma0=5e-324, horizon=4, check_delta_bound=False))
        assert r.run(RunConfig(gamma0=5e-324, horizon=3, check_delta_bound=False)).gamma[-1] > 0

    @pytest.mark.parametrize("sizes", [{"dim": 10**14}, {"dim": np.int64(10**14)},
                                       {"horizon": 10**18}, {"horizon": np.uint64(2**64 - 1)},
                                       {"n_agents": 2**61, "horizon": 0}])
    def test_histories_beyond_numpy_index_range_fail_validation(self, sizes):
        # (T + 1) N p float64 values overflow an intp, so no history could be made;
        # numpy integers are widened before the product
        with pytest.raises(ConfigError, match="the float histories exceed numpy's index range"):
            RunConfig(**sizes)
        largest = {"n_agents": 2, "horizon": 0, "dim": np.iinfo(np.intp).max // 16}
        assert RunConfig(**largest, check_delta_bound=False).dim == largest["dim"]


def _checked_written_out_round(x, y, wp, delta, gamma_t, stream, cfg, t, feasible):
    """`_written_out_round`, failing as run() does when the new state is not finite."""
    out = _written_out_round(x, y, wp, delta, gamma_t, stream, cfg, t, feasible)
    if not (np.isfinite(out[0]).all() and np.isfinite(out[1]).all()):
        raise SimulationError(f"non-finite state after step t={t}")
    return out


def _outcome(call):
    """call()'s result, or the step t named by the SimulationError or
    OracleError it raises."""
    try:
        return call()
    except (SimulationError, oracle.OracleError) as exc:
        return int(re.search(r"t=(\d+)", str(exc)).group(1))


@st.composite
def _round_configs(draw):
    """Run configs over every graph kind and stream, dims 1-6, tight boxes
    where the projection binds, loose boxes and small balls, both direction
    laws and both schedules.  About one in ten has the gain 1e150 and at least
    five steps: its surplus grows 1e150-fold per step and overflows by the
    fourth, so run() and the reference must fail at the same step."""
    feasible = draw(st.one_of(
        st.builds(lambda lo, width: dict(feasible_lo=lo, feasible_hi=lo + width),
                  st.floats(-1.0, 1.0), st.floats(1e-3, 0.5)),
        st.builds(lambda lo, hi: dict(feasible_lo=lo, feasible_hi=hi),
                  st.floats(-50.0, -5.0), st.floats(5.0, 50.0)),
        st.builds(lambda radius: dict(feasible_kind="ball", ball_radius=radius),
                  st.floats(1e-3, 1.0))))
    diverges = draw(st.integers(0, 9)) == 9
    return RunConfig(
        n_agents=draw(st.integers(2, 30)), graph_kind=draw(st.sampled_from(sorted(algorithm.GRAPH_KINDS))),
        graph_seed=draw(st.integers(0, 2**32 - 1)), extra_edge_prob=draw(st.floats(0.0, 1.0)),
        dim=draw(st.integers(1, 6)), direction_law=draw(st.sampled_from(oracle.DIRECTION_LAWS)),
        schedule_kind=draw(st.sampled_from(["inv_sqrt", "constant"])),
        gamma0=draw(st.floats(1e-3, 5.0)), mu_hat=draw(st.floats(1e-6, 1.0)),
        delta=1e150 if diverges else draw(st.floats(1e-3, 1.0)),
        horizon=draw(st.integers(5 if diverges else 1, 30)), master_seed=draw(st.integers(0, 2**64)),
        stream_name=draw(st.sampled_from(sorted(oracle.STREAM_REGISTRY))),
        check_delta_bound=False, **feasible)


class TestRoundProperties:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=_round_configs(), b=_round_configs())
    def test_run_is_the_round_law_and_keeps_its_invariants(self, counted, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = _outcome(lambda: r.run(a))
            ref = _outcome(lambda: _round_loop(a, step=_checked_written_out_round))
            if isinstance(trace, int) or isinstance(ref, int):
                assert trace == ref
            else:
                self._check_run(a, trace, ref, counted)
            alone = [trace if isinstance(trace, int) else _trace_bytes(trace),
                     _outcome(lambda: _trace_bytes(r.run(b)))]
            assert self._interleaved(a, b) == alone

    @staticmethod
    def _check_run(config, trace, ref, counted):
        n, p, t_end = config.n_agents, config.dim, config.horizon
        stream = r.make_stream(config.stream_name, n, p, config.master_seed)
        ts = np.repeat(np.arange(t_end + 1), n)
        cost = stream.aggregate_cost(ts, ref["x"].reshape(-1, p)).reshape(-1, n)
        assert [a.tobytes() for a in (trace.x, trace.y, trace.g_norm, trace.theta, trace.cost)] == \
            [a.tobytes() for a in (ref["x"], ref["y"], np.linalg.norm(ref["g"], axis=2),
                                   ref["theta"], cost)]
        # criterion 9's identities, at its tolerance
        stacked = trace.x.sum(axis=1) + trace.y.sum(axis=1)
        drift = (stacked[1:] - stacked[:-1]) / n - trace.theta.sum(axis=1) / n
        assert np.abs(drift).max() < 1e-10
        bound = trace.gamma[:, None] * trace.g_norm \
            + 2.0 * config.delta * np.linalg.norm(trace.y[:-1], axis=2)
        assert (np.linalg.norm(trace.theta, axis=2) - bound).max() < 1e-10
        counts, counting_stream = counted(algorithm, stream)
        r.run(config, stream=counting_stream)
        draws = n * t_end
        assert counts == {"estimator": draws, "direction": draws, "evaluate": 2 * draws}

    @staticmethod
    def _interleaved(a, b):
        """The outcomes of run(a) and run(b) on two threads that switch often."""
        got = [None, None]

        def run_config(i, config):
            got[i] = _outcome(lambda: _trace_bytes(r.run(config)))

        threads = [threading.Thread(target=run_config, args=(i, c)) for i, c in enumerate((a, b))]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        return got


class TestConsensusContraction:
    def test_spread_decays_and_sits_below_theory_scale(self, sv_trace):
        trace = sv_trace
        horizon = trace.horizon
        spread = trace.spread
        assert spread[horizon] < spread[horizon // 10]
        # ceiling 10 * gamma(T) * G1_hat * C_hat / (1 - lambda) with constants
        # fitted from the run itself
        from rgfopt.analysis import fit_constants_from_trace
        inputs = fit_constants_from_trace(trace)
        gamma_t = trace.gamma[-1]
        ceiling = 10.0 * gamma_t * inputs.g1_fit * max(inputs.c_fit, 1.0) / (1.0 - inputs.lambda_fit)
        assert spread[horizon] < ceiling


def rowwise_csv(header, rows):
    """The row-at-a-time formatter csv_text replaced, kept as the reference."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


class TestCsvText:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_around_the_chunk_size(self, offset):
        n_rows = algorithm._CSV_CHUNK_ROWS + offset
        rng = np.random.default_rng(n_rows)
        columns = [np.arange(n_rows), rng.standard_normal(n_rows) * 1e3,
                   rng.integers(-5, 5, n_rows), rng.random((n_rows, 3))[:, 1]]
        rows = zip(*(c.tolist() for c in columns))
        assert csv_text(["a", "b", "c", "d"], columns) == rowwise_csv(["a", "b", "c", "d"], rows)

    def test_zero_rows_is_the_header_only(self, tmp_path):
        assert csv_text(["a", "b"], [np.empty(0), []]) == "a,b\n"
        assert csv_text(["a"], []) == "a\n"
        with pytest.warns(RuntimeWarning):
            result = experiment_fig2_3(seed=0, horizon=0, out_dir=tmp_path)
        regret = result.paths["regret"].read_text()
        assert regret == rowwise_csv(["t", "agent", "regret", "time_avg_regret"], [])

    def test_mixed_empty_and_float_columns(self):
        columns = [[0.5, "", 1e-7], ["", "", 2.5], [1, 0, 1], ["", "delta must be positive", ""]]
        assert (csv_text(list("abcd"), columns)
                == rowwise_csv(list("abcd"), zip(*columns)))

    def test_special_values(self):
        floats = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
                           0.1 + 0.2, -1.7976931348623157e308])
        ints = np.array([2**62, -2**63, 0, 1, -1, 7, 2**31, 10**18, 3, 4])
        big = [2**70, -2**100, 0, 1, 2, 3, 4, 5, 6, 10**30]
        flags = np.array([True, False] * 5)
        singles = np.array([-0.0, 0.1, math.nan, math.inf, 1e-45, 3.4e38, 1.0, 2.0, 3.0, 4.0],
                           dtype=np.float32)
        columns = [floats, ints, big, flags, singles]
        expected = rowwise_csv(list("abcde"), zip(floats.tolist(), ints.tolist(), big,
                                                    flags.tolist(), singles))
        assert csv_text(list("abcde"), columns) == expected

    def test_repeated_values_across_the_chunk_boundary(self):
        # runs are formatted once per chunk; a run straddling row 4096 splits
        # into two, and values that differ only in their bits stay apart
        n_rows = algorithm._CSV_CHUNK_ROWS + 25
        rng = np.random.default_rng(4)
        steps = np.repeat(np.arange(n_rows // 7 + 2), 7)[3:n_rows + 3]
        zeros = np.where(np.repeat(rng.random(n_rows // 5 + 1) < 0.5, 5)[:n_rows], 0.0, -0.0)
        nans = np.repeat(np.array([math.nan, 1.5, -math.nan, math.inf]), n_rows // 4 + 1)[:n_rows]
        payload = np.repeat(np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64),
                            n_rows // 2 + 1)[:n_rows].view(np.float64)
        columns = [steps, np.repeat(rng.standard_normal(n_rows // 10 + 1), 10)[:n_rows],
                   zeros, nans, payload, np.repeat(rng.random(n_rows // 3 + 1), 3)[:n_rows]
                   .astype(np.float32), np.repeat([True, False], n_rows // 2 + 1)[:n_rows],
                   np.repeat(rng.standard_normal(n_rows // 2 + 1), 2)[:n_rows] * 1e-300,
                   rng.standard_normal(n_rows)]
        header = [f"c{k}" for k in range(len(columns))]
        rows = zip(*(c.tolist() for c in columns))
        assert csv_text(header, columns) == rowwise_csv(header, rows)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            csv_text(["a", "b"], [np.arange(3), np.arange(4)])

    def test_fig2_3_csvs_equal_rowwise_reference(self, tmp_path):
        # 420 steps of 10 agents: trajectory and regret tables span two chunks
        with pytest.warns(RuntimeWarning):
            result = experiment_fig2_3(seed=3, horizon=420, out_dir=tmp_path)
        trace, ledger = result.trace, result.ledger
        x, cost, spread, star = (trace.x.tolist(), trace.cost.tolist(), trace.spread.tolist(),
                                 trace.x_star.tolist())
        trajectories = rowwise_csv(
            ["t", "agent", "x_0", "global_cost", "spread", "x_star_0"],
            ([t, i, *x[t][i], cost[t][i], spread[t], *star[t]]
             for t in range(421) for i in range(10)))
        regret = rowwise_csv(
            ["t", "agent", "regret", "time_avg_regret"],
            ([t, i, v, v / t] for t, row in enumerate(ledger.regret_curve[1:].tolist(), start=1)
             for i, v in enumerate(row)))
        aug = r.consensus_curve(trace).tolist()
        consensus = rowwise_csv(["t", "spread", "spread_augmented"],
                                ([t, spread[t], aug[t]] for t in range(421)))
        assert result.paths["trajectories"].read_text() == trajectories
        assert result.paths["regret"].read_text() == regret
        assert result.paths["consensus"].read_text() == consensus


FORK_ROWS = 4 * algorithm._CSV_CHUNK_ROWS


def serial_csv(header, columns):
    """csv_text's one-process path."""
    n_rows = len(columns[0]) if columns else 0
    return ",".join(header) + "\n" + "".join(algorithm._csv_rows(columns, 0, n_rows))


def large_table(n_rows=FORK_ROWS + 1000):
    rng = np.random.default_rng(23)
    specials = np.array([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                         -2.5e-310, 2.2250738585072014e-308, 1e16])
    floats = rng.standard_normal(n_rows)
    floats[rng.integers(0, n_rows, 2000)] = rng.choice(specials, 2000)
    runs = np.repeat(rng.choice(specials, n_rows // 8 + 1), 8)[:n_rows]
    steps = np.repeat(np.arange(n_rows // 10 + 1), 10)[:n_rows]
    listed = [v if k % 3 else "" for k, v in enumerate(rng.standard_normal(n_rows).tolist())]
    columns = [steps, rng.random(n_rows) < 0.5, listed, floats, runs,
               np.repeat(rng.standard_normal(n_rows // 4 + 1), 4)[:n_rows] * 1e-300]
    return [f"c{k}" for k in range(len(columns))], columns


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Lets csv_text see two CPUs and records each fork it makes."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


@pytest.fixture
def parent_rows(monkeypatch):
    """Records the (start, stop) row ranges this process formats."""
    calls, parent, real_rows = [], os.getpid(), algorithm._csv_rows

    def rows(columns, start, stop):
        if os.getpid() == parent:
            calls.append((start, stop))
        return real_rows(columns, start, stop)

    monkeypatch.setattr(algorithm, "_csv_rows", rows)
    return calls


def in_child_only(monkeypatch, action):
    """Patch _cells so that `action` runs in place of it in a forked child."""
    parent, real_cells = os.getpid(), algorithm._cells

    def cells(col):
        if os.getpid() != parent:
            action()
        return real_cells(col)

    monkeypatch.setattr(algorithm, "_cells", cells)


class TestCsvFork:
    def test_large_table_bytes_equal_the_serial_path(self, forks, parent_rows):
        header, columns = large_table()
        text = csv_text(header, columns)
        assert forks == [os.getpid()]
        assert parent_rows == [(0, FORK_ROWS // 2)]  # the child formats the rest
        assert text == serial_csv(header, columns)
        assert text == rowwise_csv(header, zip(*(list(c) for c in columns)))
        assert_no_child_left()

    def test_trace_of_20010_rows_equals_the_serial_path(self, forks, monkeypatch):
        trace = r.run(RunConfig(n_agents=10, horizon=2000, check_delta_bound=False))
        text = trace.to_csv_text()
        assert forks == [os.getpid()]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert text == trace.to_csv_text()
        assert text.count("\n") == 20011
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "exits_before_writing", "killed"])
    def test_a_failed_child_is_replaced_by_the_parent(self, forks, parent_rows, monkeypatch,
                                                      failure):
        def fail():
            if failure == "raises":
                raise RuntimeError("child fails")
            if failure == "exits_before_writing":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)

        header, columns = large_table()
        in_child_only(monkeypatch, fail)
        text = csv_text(header, columns)
        assert len(forks) == 1
        assert parent_rows == [(0, FORK_ROWS // 2), (FORK_ROWS // 2, FORK_ROWS + 1000)]
        assert text == serial_csv(header, columns)
        assert_no_child_left()

    def test_a_waitpid_error_is_replaced_by_the_parent(self, forks, parent_rows, monkeypatch):
        real_waitpid = os.waitpid

        def waitpid(pid, options):
            real_waitpid(pid, options)  # as if someone else reaped the child
            raise ChildProcessError

        header, columns = large_table()
        monkeypatch.setattr(os, "waitpid", waitpid)
        text = csv_text(header, columns)
        halves = list(parent_rows)
        monkeypatch.undo()
        assert text == serial_csv(header, columns)
        assert halves == [(0, FORK_ROWS // 2), (FORK_ROWS // 2, FORK_ROWS + 1000)]
        assert_no_child_left()

    def test_a_failed_fork_runs_the_serial_path(self, forks, monkeypatch):
        def fork():
            raise OSError(errno.EAGAIN, "no process slot")

        header, columns = large_table()
        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        assert csv_text(header, columns) == serial_csv(header, columns)
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == fds
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, MemoryError])
    def test_the_child_is_reaped_when_the_parent_raises(self, forks, monkeypatch, exc):
        parent, real_cells = os.getpid(), algorithm._cells

        def cells(col):
            if os.getpid() == parent:
                raise exc
            return real_cells(col)

        header, columns = large_table()
        monkeypatch.setattr(algorithm, "_cells", cells)
        with pytest.raises(exc):
            csv_text(header, columns)
        assert len(forks) == 1
        assert_no_child_left()
        monkeypatch.undo()
        assert csv_text(header, columns) == serial_csv(header, columns)


class TestCsvForkSelection:
    """csv_text forks only where it can see that a second process pays."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def fork():
            pytest.fail("csv_text forked")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    # the largest tables of mc_diag (sandwich.csv), ring_sweep (fig4_series.csv)
    # and track10's consensus.csv, and one row short of four chunks
    @pytest.mark.parametrize("n_rows", [20, 400, 5001, FORK_ROWS - 1])
    def test_small_tables_stay_serial(self, n_rows):
        header, columns = large_table(n_rows)
        assert csv_text(header, columns) == serial_csv(header, columns)

    def test_one_cpu_stays_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        header, columns = large_table()
        assert csv_text(header, columns) == serial_csv(header, columns)

    def test_a_second_live_thread_keeps_it_serial(self):
        header, columns = large_table()
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            text = csv_text(header, columns)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert text == serial_csv(header, columns)

    @pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
    def test_without_the_os_call_it_stays_serial(self, monkeypatch, missing):
        monkeypatch.delattr(os, missing)
        header, columns = large_table()
        assert csv_text(header, columns) == serial_csv(header, columns)
