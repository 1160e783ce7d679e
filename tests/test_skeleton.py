"""The per-draw call skeleton that the traced benchmark counts: one
`gradient_free_oracle` call per draw, making one `sample_direction` call and
two `stream.evaluate` calls, each resolved through the module global or the
stream field that the benchmark's span wrappers replace."""

import importlib.util
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rgfopt as r
from rgfopt import algorithm, analysis, experiments, oracle


def _trace_arrays(trace):
    return [None if a is None else a.tobytes()
            for a in (trace.x, trace.y, trace.g_norm, trace.theta, trace.cost)]


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("dim", [1, 3])
def test_run_makes_one_draw_per_agent_and_step(counted, dim, record):
    config = r.RunConfig(n_agents=6, dim=dim, horizon=400, master_seed=3, check_delta_bound=False,
                         record_surplus=record, record_oracle=record)
    stream = r.make_stream(config.stream_name, 6, dim, config.master_seed)
    expected = _trace_arrays(r.run(config, stream=stream))
    counts, counting_stream = counted(algorithm, stream)
    trace = r.run(config, stream=counting_stream)
    draws = config.n_agents * config.horizon
    assert counts == {"estimator": draws, "direction": draws, "evaluate": 2 * draws}
    assert _trace_arrays(trace) == expected


def test_oracle_mean_makes_one_estimator_call_per_draw(counted, monkeypatch):
    stream = experiments.quadratic_norm_stream(3)
    cfg = r.OracleConfig(1, 0.01, 3, rng_seed=5)
    points = [np.array([0.3, -0.2, 0.9]), np.array([-0.6, 0.1, 0.0]), np.array([0.5, 0.5, -0.5])]
    counts, counting_stream = counted(experiments, stream)
    per_point = {}
    estimator = experiments.gradient_free_oracle

    def by_point(*args):
        # what one estimator call adds to the counts, booked to its point
        before = counts.copy()
        g = estimator(*args)
        per_point.setdefault(args[-1].tobytes(), Counter()).update(counts - before)
        return g
    monkeypatch.setattr(experiments, "gradient_free_oracle", by_point)
    n_draws = oracle._BLOCK_KEYS + 5
    experiments._oracle_mean(counting_stream, cfg, points, n_draws)
    assert per_point == {x.tobytes(): {"estimator": n_draws, "direction": n_draws,
                                       "evaluate": 2 * n_draws} for x in points}
    assert "stray" not in counts


def _bench_spans():
    """The traced benchmark's span module, loaded from its file without
    being changed or installed anywhere."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans_readonly", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Wrap points that no caller resolves today: no experiment calls delta_hat,
# analysis reaches the power-gap series and its fit only through
# `algorithm.gain_fit`, whose calls the `rgfopt.algorithm` points wrap
# (test_spectral_spans_fire_through_gain_fit), and the experiments' ledgers
# read the stream that `run()` made through `rgfopt.algorithm.make_stream`.
_UNRESOLVED_WRAP_POINTS = {
    ("rgfopt.experiments", "delta_hat"),
    ("rgfopt.experiments", "make_stream"),
    ("rgfopt.analysis", "matrix_power_gap_series"),
    ("rgfopt.analysis", "fit_geometric_decay"),
}


def test_every_bench_wrap_point_resolves():
    # The tracer skips a name that its caller no longer resolves, so a
    # refactor that moves a call would silently zero that layer's spans.
    spans = _bench_spans()
    points = [(path, attr) for path, attr, _name, _count in spans._PLAIN] + spans._STREAM_FACTORIES
    missing = []
    for path, attr in points:
        owner = spans._owner(path)
        found = (owner is not None
                 and (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)))
        if not found and (path, attr) not in _UNRESOLVED_WRAP_POINTS:
            missing.append(f"{path}.{attr}")
    assert missing == []
    assert all(not hasattr(spans._owner(path), attr) for path, attr in _UNRESOLVED_WRAP_POINTS)


_UNCHECKED = r.RunConfig(horizon=5, check_delta_bound=False)

# caller -> (call on the unchecked run's trace and weights,
#            (power-gap spans, fit spans, powers))
_SPECTRAL_CALLS = {
    "spectral_report": (lambda trace, wp: analysis.spectral_report(wp, analysis.DELTA_GRID),
                        (4, 4, 800)),
    "run": (lambda trace, wp: r.run(r.RunConfig(horizon=5)), (1, 1, 120)),
    "fit_constants_from_trace": (lambda trace, wp: analysis.fit_constants_from_trace(trace),
                                 (1, 1, 200)),
    "run_unchecked": (lambda trace, wp: r.run(_UNCHECKED), (0, 0, 0)),
}


@pytest.mark.parametrize("caller", sorted(_SPECTRAL_CALLS))
def test_spectral_spans_fire_through_gain_fit(caller):
    # Under the benchmark's wrappers each power-gap series and each fit is
    # one span, and the series adds its powers to a counter; a call path
    # that bypasses the wrapped names would read zero here.
    call, expected = _SPECTRAL_CALLS[caller]
    trace = r.run(_UNCHECKED)
    wp = r.equal_neighbor_weights(algorithm.make_graph(
        _UNCHECKED.graph_kind, _UNCHECKED.n_agents, _UNCHECKED.graph_seed, _UNCHECKED.extra_edge_prob))
    spans = _bench_spans()
    rec = spans.Recorder()
    with spans.traced(rec), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        call(trace, wp)
    names = [rec.names[i] for i in rec.name_id]
    assert (names.count("graph.power_gap"), names.count("algorithm.fit_decay"),
            rec.counts[0]["graph.power_gap.powers"]) == expected
