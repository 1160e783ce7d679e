import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import rgfopt as r
from rgfopt import analysis
from rgfopt.algorithm import RunConfig, Trace, fit_geometric_decay, gain_fit
from rgfopt.analysis import (
    BoundInputs,
    build_regret_ledger,
    consensus_curve,
    fit_constants_from_trace,
    path_length,
    regret_bound_rhs,
    spectral_report,
    theta_over_gamma,
)
from rgfopt.graph import build_augmented, equal_neighbor_weights, make_cycle, \
    make_random_strongly_connected, matrix_power_gap_series
from rgfopt.oracle import paper_objective_stream, tracking_target

SRC = Path(r.__file__).resolve().parents[1]


def synthetic_trace(stream, offsets, horizon):
    """Trace whose agents sit at x*(t) + offset_i at every step."""
    n = stream.n_agents
    minimizers = np.stack([stream.analytic_minimizer(t) for t in range(horizon + 1)])
    x = minimizers[:, None, :] + np.asarray(offsets)[None, :, None]
    cost = np.stack([stream.aggregate_cost(t, x[t]) for t in range(horizon + 1)])
    spread = np.linalg.norm(x - x.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    config = RunConfig(n_agents=n, horizon=horizon, dim=stream.dim)
    return Trace(config=config, x=x, cost=cost, spread=spread,
                 gamma=np.ones(horizon), stream=stream, x_star=minimizers)


class TestDynamicRegret:
    def test_zero_when_playing_optimum(self):
        stream = paper_objective_stream(4, coeff_seed=1)
        trace = synthetic_trace(stream, np.zeros(4), horizon=60)
        regret = build_regret_ledger(trace).regret
        assert np.abs(regret).max() < 1e-9

    def test_constant_offset_closed_form(self):
        # aggregate cost is N (x - d)^2, so a fixed offset eps accrues
        # exactly (T+1) N eps^2
        stream = paper_objective_stream(5, coeff_seed=2)
        eps = 0.25
        horizon = 40
        trace = synthetic_trace(stream, np.full(5, eps), horizon)
        regret = build_regret_ledger(trace).regret
        expected = (horizon + 1) * 5 * eps ** 2
        assert np.allclose(regret, expected, rtol=1e-9)

    def test_additive_over_horizon_split(self):
        stream = paper_objective_stream(3, coeff_seed=3)
        rng = np.random.default_rng(0)
        trace = synthetic_trace(stream, rng.uniform(-1, 1, 3), horizon=50)
        full = build_regret_ledger(trace)
        split = 20
        head = Trace(config=trace.config, x=trace.x[:split + 1], cost=trace.cost[:split + 1],
                     spread=trace.spread[:split + 1], gamma=trace.gamma[:split],
                     stream=stream, x_star=trace.x_star[:split + 1])
        head_ledger = build_regret_ledger(head)
        tail = full.regret - head_ledger.regret
        assert np.allclose(head_ledger.regret + tail, full.regret, rtol=1e-12)
        assert np.allclose(full.regret_curve[split], head_ledger.regret, rtol=1e-12)

    def test_numeric_fallback_matches_analytic(self):
        stream = paper_objective_stream(4, coeff_seed=4)
        trace = synthetic_trace(stream, np.full(4, 0.1), horizon=8)
        analytic = build_regret_ledger(trace).regret
        # strip the analytic minimizer so the golden-section fallback engages
        blind = r.ObjectiveStream(
            n_agents=4, dim=1, evaluate=stream.evaluate,
            aggregate_evaluate=stream.aggregate_evaluate)
        blind_trace = Trace(config=trace.config, x=trace.x, cost=trace.cost,
                            spread=trace.spread, gamma=trace.gamma, stream=blind, x_star=None)
        ledger = build_regret_ledger(blind_trace)
        assert ledger.minimizer_source == "numeric"
        assert np.allclose(ledger.regret, analytic, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_numeric_fallback_reaches_the_box_endpoint(self, seed):
        # linear_probe's aggregate cost is s x, least at the low end of the
        # box when s > 0 and at the high end when s < 0 (seed 0: s = 2, seed 3: s = -6)
        config = RunConfig(horizon=30, stream_name="linear_probe", master_seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = r.run(config)
        slope = trace.stream.aggregate_cost(0, np.ones((1, 1)))[0]
        end = config.feasible_lo if slope > 0 else config.feasible_hi
        minimizers, source = analysis._minimizer_sequence(trace)
        assert source == "numeric" and minimizers.shape == (31, 1)
        assert np.abs(minimizers - end).max() <= 1e-8

    def test_numeric_fallback_names_a_non_finite_cost(self):
        stream = r.ObjectiveStream(n_agents=1, dim=1,
                                   evaluate=lambda i, t, x: math.nan if t == 4 else float(x @ x))
        # the fallback reads only the feasible set and the horizon of the config
        config = RunConfig(n_agents=2, horizon=6)
        trace = Trace(config=config, x=np.zeros((7, 1, 1)), cost=np.zeros((7, 1)),
                      spread=np.zeros(7), gamma=np.ones(6), stream=stream, x_star=None)
        with pytest.raises(RuntimeError, match="at t=4: non-finite cost"):
            build_regret_ledger(trace)

    @pytest.mark.parametrize("dim, kind, match", [
        (2, "box", "implemented for 1-D streams only"),
        (1, "ball", "requires a box feasible set"),
    ])
    def test_numeric_fallback_rejects_what_it_cannot_search(self, dim, kind, match):
        stream = r.ObjectiveStream(n_agents=1, dim=dim, evaluate=lambda i, t, x: float(x @ x))
        config = RunConfig(n_agents=2, horizon=6, dim=dim, feasible_kind=kind)
        trace = Trace(config=config, x=np.zeros((7, 1, dim)), cost=np.zeros((7, 1)),
                      spread=np.zeros(7), gamma=np.ones(6), stream=stream, x_star=None)
        with pytest.raises(ValueError, match=match):
            build_regret_ledger(trace)

    def test_runs_without_scipy(self):
        # scipy is a test-only dependency: the package, the numeric ledger
        # fallback and the CLI run with every scipy import blocked
        code = textwrap.dedent("""
            import sys, warnings
            sys.modules["scipy"] = None
            import rgfopt as r
            from rgfopt import cli
            warnings.simplefilter("ignore", RuntimeWarning)
            config = r.RunConfig(horizon=20, stream_name="linear_probe")
            print(r.build_regret_ledger(r.run(config)).minimizer_source)
            print(cli.main(["spectral"]))
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == "numeric"
        assert out.stdout.splitlines()[-1] == "0"

    def test_minimizer_outside_the_feasible_set_rejected(self):
        # every x lies in [1, 2] while x*(t) is at most 0.016: the ledger
        # would measure regret against a point no agent may play
        config = RunConfig(horizon=200, feasible_lo=1.0, feasible_hi=2.0)
        with pytest.warns(RuntimeWarning):
            trace = r.run(config)
        with pytest.raises(ValueError, match=r"analytic minimizer at t=0, \[0\.016\]"):
            build_regret_ledger(trace)

    @pytest.mark.parametrize("kind", ["box", "ball"])
    def test_first_infeasible_time_is_named(self, kind):
        # x*(t) = 2 sin(0.008 t)/t turns negative first at t = 393, and its
        # norm first exceeds 0.01 at t = 0
        stream = paper_objective_stream(3, coeff_seed=6)
        trace = synthetic_trace(stream, np.zeros(3), horizon=400)
        trace.config = dataclasses.replace(trace.config, feasible_kind=kind, feasible_lo=0.0,
                                           ball_radius=0.01)
        with pytest.raises(ValueError, match=f"at t={393 if kind == 'box' else 0},"):
            build_regret_ledger(trace)

    def test_default_box_gives_the_same_ledger(self):
        stream = paper_objective_stream(4, coeff_seed=7)
        trace = synthetic_trace(stream, np.linspace(-0.3, 0.4, 4), horizon=80)
        ledger = build_regret_ledger(trace)
        offline = stream.aggregate_cost(np.arange(81), trace.x_star)
        curve = np.cumsum(trace.cost - offline[:, None], axis=0)
        assert ledger.regret_curve.tobytes() == curve.tobytes()
        assert ledger.offline_cost == float(offline.sum())

    def test_time_averaged_requires_positive_t(self):
        stream = paper_objective_stream(3, coeff_seed=5)
        ledger = build_regret_ledger(synthetic_trace(stream, np.zeros(3), 10))
        with pytest.raises(ValueError):
            ledger.time_averaged(0)


class TestPathLength:
    def test_constant_sequence_is_zero(self):
        assert path_length(np.full((30, 2), 1.5)) == 0.0

    def test_line_telescopes_to_one(self):
        assert path_length(np.linspace(0.0, 1.0, 51)[:, None]) == pytest.approx(1.0)

    def test_retiming_invariance(self):
        rng = np.random.default_rng(1)
        seq = rng.standard_normal((20, 2))
        padded = np.insert(seq, 7, seq[7], axis=0)  # repeat one minimizer
        assert path_length(padded) == pytest.approx(path_length(seq), rel=1e-12)

    def test_against_high_precision_summation(self):
        ts = np.arange(5001)
        d = np.array([tracking_target(int(t)) for t in ts])[:, None]
        fast = path_length(d)
        slow = math.fsum(abs(float(b) - float(a)) for a, b in zip(d[:-1, 0], d[1:, 0]))
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_single_point_is_zero(self):
        assert path_length(np.array([[2.0]])) == 0.0


class TestConsensusCurve:
    def test_identical_agents_give_zero(self):
        stream = paper_objective_stream(4, coeff_seed=1)
        trace = synthetic_trace(stream, np.zeros(4), horizon=30)
        assert np.abs(trace.spread).max() == 0.0
        assert consensus_curve(trace) is None  # no surplus recorded

    def test_pure_consensus_decay_is_geometric(self):
        config = RunConfig(n_agents=8, graph_kind="random", graph_seed=3,
                           stream_name="constant", delta=0.05, horizon=400,
                           master_seed=6, check_delta_bound=False)
        trace = r.run(config)
        _, lam, _ = fit_geometric_decay(trace.spread[1:], 10, 300)
        assert 0.0 < lam < 1.0
        assert trace.spread[-1] < 1e-6 * trace.spread[0]
        assert consensus_curve(trace)[-1] < 1e-6 * trace.spread[0]

    def test_augmented_mean_variant(self, sv_trace):
        spread_aug = consensus_curve(sv_trace)
        assert spread_aug is not None
        assert spread_aug.shape == sv_trace.spread.shape
        # late in the run the surplus is tiny so both notions agree closely
        assert abs(spread_aug[-1] - sv_trace.spread[-1]) < 1e-3

    def test_pilot_threshold_at_horizon(self, sv_trace):
        # regression fixture from the pinned-seed pilot run
        assert sv_trace.spread[5000] < 1e-2


def _bound_inputs(**overrides):
    base = dict(n_agents=10, dim=1, rho=5.0, subgradient_bound=16.0, mu_hat=1e-4,
                gamma0=1.0, lambda_fit=0.9, c_fit=2.0, g1_fit=50.0, horizon=5000,
                path_length_value=0.05, g2_fit=2500.0, g3_fit=40000.0)
    base.update(overrides)
    return BoundInputs(**base)


class TestRegretBound:
    def test_term_dropout(self):
        # with a vanishing smoothing parameter and no path movement the bound
        # collapses to c1 + c2 sqrt(T+1)
        bb = regret_bound_rhs(_bound_inputs(mu_hat=1e-300, path_length_value=0.0))
        assert bb.total == pytest.approx(bb.c1 + bb.sqrt_term, rel=1e-9)

    def test_linear_term_doubles_with_mu(self):
        b1 = regret_bound_rhs(_bound_inputs(mu_hat=1e-4))
        b2 = regret_bound_rhs(_bound_inputs(mu_hat=2e-4))
        assert b2.linear_term == pytest.approx(2.0 * b1.linear_term, rel=1e-12)

    def test_monotone_in_path_length(self):
        lo = regret_bound_rhs(_bound_inputs(path_length_value=0.0))
        hi = regret_bound_rhs(_bound_inputs(path_length_value=1.0))
        assert hi.total > lo.total

    def test_stand_ins_labeled(self):
        bb = regret_bound_rhs(_bound_inputs())
        for key in ("G1", "G2", "G3", "nu_hat", "L_hat", "C_hat", "lambda"):
            assert key in bb.stand_ins
            label, value = bb.stand_ins[key]
            assert isinstance(label, str) and np.isfinite(value)

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            _bound_inputs(rho=0.0)
        with pytest.raises(ValueError):
            _bound_inputs(gamma0=-1.0)
        with pytest.raises(ValueError):
            _bound_inputs(lambda_fit=1.0)
        with pytest.raises(ValueError):
            _bound_inputs(path_length_value=-0.1)


class TestSpectralReport:
    def test_cycle_rows_flag_divergence_at_standard_gain(self):
        wp = equal_neighbor_weights(make_cycle(10))
        rows = spectral_report(wp, [0.01, 0.1])
        by_delta = {row.delta: row for row in rows}
        assert by_delta[0.01].geometric is True
        assert 0.0 < by_delta[0.01].lambda_fit < 1.0
        # standard gain diverges on the one-way cycle and must be flagged
        assert by_delta[0.1].geometric is False
        assert by_delta[0.1].lambda_fit > 1.0
        assert all(row.delta_hat_value == rows[0].delta_hat_value for row in rows)

    def test_random_graph_converges_at_standard_gain(self):
        wp = equal_neighbor_weights(make_random_strongly_connected(10, 0.3, seed=7))
        rows = spectral_report(wp, [0.1])
        assert rows[0].geometric is True
        assert 0.0 < rows[0].lambda_fit < 1.0
        assert rows[0].r_squared > 0.9

    def test_limit_residual_after_long_horizon(self):
        # once decay is confirmed the gap reaches numerical noise well before
        # t = 400 on a fast-mixing topology
        wp = equal_neighbor_weights(make_random_strongly_connected(10, 0.3, seed=7))
        gaps = matrix_power_gap_series(build_augmented(wp, 0.1), 400)
        assert gaps[-1] < 1e-8

    def test_invalid_delta_reported_per_row(self):
        wp = equal_neighbor_weights(make_cycle(4))
        rows = spectral_report(wp, [-0.5, 0.02, math.nan, math.inf])
        for bad in (rows[0], rows[2], rows[3]):
            assert bad.error is not None and bad.geometric is False
            assert (bad.c_fit, bad.lambda_fit, bad.r_squared, bad.gap_first, bad.gap_last) == (
                None, None, None, None, None)
        assert [row.error for row in rows] == [
            "delta must be positive", None, "delta must be finite", "delta must be finite"]
        assert rows[1].error is None

    def test_fit_recovers_exact_geometric_sequence(self):
        t = np.arange(1, 201)
        gaps = 3.0 * 0.9 ** t
        c, lam, r2 = fit_geometric_decay(gaps, 5, 200)
        assert c == pytest.approx(3.0, rel=1e-9)
        assert lam == pytest.approx(0.9, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["cycle", "random"])
    def test_every_caller_reads_gain_fit(self, kind):
        # gain_fit is the series and its fit over 5..t_max, bit for bit, and
        # run(), spectral_report and fit_constants_from_trace report its values
        config = RunConfig(graph_kind=kind, horizon=5)
        wp = equal_neighbor_weights(r.algorithm.make_graph(
            kind, config.n_agents, config.graph_seed, config.extra_edge_prob))
        fits = {}
        for t_max in (120, 200):
            gaps, c, lam, r2 = fits[t_max] = gain_fit(wp, 0.1, t_max)
            reference = matrix_power_gap_series(build_augmented(wp, 0.1), t_max)
            assert gaps.tobytes() == reference.tobytes()
            assert (c, lam, r2) == fit_geometric_decay(reference, 5, t_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = r.run(config)
        assert (trace.c_fit, trace.lambda_fit) == fits[120][1:3]
        row, = spectral_report(wp, [0.1])
        gaps, c, lam, r2 = fits[200]
        assert (row.c_fit, row.lambda_fit, row.r_squared) == (c, lam, r2)
        assert (row.gap_first, row.gap_last) == (gaps[0], gaps[-1])
        inputs = fit_constants_from_trace(trace)
        assert (inputs.c_fit, inputs.lambda_fit) == (c, min(lam, 1.0 - 1e-9))


class TestFittedConstants:
    def test_theta_ratio_requires_recording(self):
        stream = paper_objective_stream(3, coeff_seed=1)
        trace = synthetic_trace(stream, np.zeros(3), horizon=5)
        with pytest.raises(ValueError):
            theta_over_gamma(trace)

    @pytest.mark.parametrize("fields, message", [
        ({"horizon": 0}, r"horizon >= 1, got horizon=0$"),
        ({"horizon": 5, "record_oracle": False}, "no residual recording")])
    def test_unfittable_trace_is_rejected_before_the_gain_fit(self, monkeypatch, fields, message):
        trace = r.run(RunConfig(**fields, check_delta_bound=False))
        monkeypatch.setattr(analysis, "gain_fit", lambda *args: pytest.fail("gain_fit called"))
        with pytest.raises(ValueError, match=message):
            fit_constants_from_trace(trace)

    def test_trace_without_oracle_norms_is_rejected_before_the_gain_fit(self, monkeypatch):
        trace = dataclasses.replace(r.run(RunConfig(horizon=20, check_delta_bound=False)),
                                    g_norm=None)
        monkeypatch.setattr(analysis, "gain_fit", lambda *args: pytest.fail("gain_fit called"))
        with pytest.raises(ValueError, match="no residual recording"):
            fit_constants_from_trace(trace)

    def test_the_fit_reads_the_weight_pair_on_the_trace(self):
        # a trace carrying another graph's pair is fitted on that pair, not on
        # one rebuilt from its config
        trace = r.run(RunConfig(horizon=20, check_delta_bound=False))
        wp = equal_neighbor_weights(r.algorithm.make_graph("complete", 10, 0, 0.0))
        inputs = fit_constants_from_trace(dataclasses.replace(trace, weights=wp))
        _, c, lam, _ = gain_fit(wp, trace.config.delta, 200)
        assert lam < 1.0 and (inputs.c_fit, inputs.lambda_fit) == (c, lam)
        assert (c, lam) != gain_fit(trace.weights, trace.config.delta, 200)[1:3]

    def test_constants_from_sv_run(self, sv_trace):
        inputs = fit_constants_from_trace(sv_trace)
        assert 0.0 < inputs.lambda_fit < 1.0
        assert inputs.c_fit > 0.0
        assert inputs.g1_fit > 0.0
        assert inputs.subgradient_bound == sv_trace.stream.subgradient_bound(5.0)
        assert inputs.path_length_value > 0.0

    def test_the_run_stream_drives_the_ledger_and_the_path_term(self):
        # the stream hides its minimizer 0.01 t, so the ledger searches for
        # it on the run's own stream, and the bound's path term reads the
        # same sequence
        stream = r.ObjectiveStream(
            n_agents=10, dim=1, evaluate=lambda i, t, x: float((x[0] - 0.01 * t) ** 2),
            aggregate_evaluate=lambda t, pts: 10.0 * (pts[:, 0] - 0.01 * np.asarray(t)) ** 2)
        trace = r.run(RunConfig(horizon=30, check_delta_bound=False), stream=stream)
        assert trace.stream is stream and trace.x_star is None
        ledger = build_regret_ledger(trace)
        assert ledger.minimizer_source == "numeric"
        assert ledger.path_length_value == pytest.approx(0.3, abs=1e-7)
        assert fit_constants_from_trace(trace).path_length_value == ledger.path_length_value

    def test_subgradient_bound_follows_the_feasible_set(self):
        # on the box [-50, 50] agents can sit where gradients reach ~140, so
        # D must come from the configured set, not the default [-5, 5]
        config = RunConfig(horizon=30, master_seed=2, feasible_lo=-50.0, feasible_hi=50.0,
                           check_delta_bound=False)
        trace = r.run(config)
        inputs = fit_constants_from_trace(trace)
        a, b = np.array(trace.stream.params["a"]), np.array(trace.stream.params["b"])
        steepest = float((2 * a * 50.0 + 2 * b * 0.016).max())
        assert inputs.rho == 50.0
        assert inputs.subgradient_bound >= steepest > 100.0
