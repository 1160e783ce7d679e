"""In-memory span recording around rgfopt's public functions.

A traced run replaces public functions, as each caller module resolves
them, with wrappers that record one span per call: name, start, end, the
index of the enclosing span and the rep.  Nothing in the package changes;
leaving `traced()` restores every original.  A function that a caller no
longer resolves is skipped, so its spans simply read zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Recorder:
    """Spans as parallel arrays, plus per-rep counters the wrappers add to."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.rep_index = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording a span named `name` per call; `count(args,
        kwargs, result)` may return extra per-rep counters."""
        nid = self._id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self.current)
            self.rep.append(self.rep_index)
            self.start.append(0)
            self.end.append(0)
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self.current = self.parent[idx]
            if count is not None:
                self.counts[self.rep_index].update(count(args, kwargs, result))
            return result

        return functools.update_wrapper(traced, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "rep": np.frombuffer(self.rep, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path, workload: str) -> None:
        """Write every span: name, start, end, parent index, workload and rep."""
        np.savez_compressed(path, names=np.array(self.names), workload=np.array(workload),
                            **self.arrays())


def _power_gap_count(args, kwargs, gaps):
    # The augmented matrix is 2N x 2N; each power is one dense product.
    size = args[0].w_aug.shape[0]
    return {"graph.power_gap.powers": len(gaps),
            "graph.power_gap.gflop_computed": 2.0 * size ** 3 * len(gaps) / 1e9}


def _mc_count(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        return {"oracle.mc.points": signature.bind(*args, **kwargs).arguments["n_samples"]}
    return count


def _csv_count(args, kwargs, text):
    return {"algorithm.csv.bytes": len(text.encode())}


# (caller module or class, attribute, span name, counter factory or None)
_PLAIN = [
    ("rgfopt.algorithm", "equal_neighbor_weights", "graph.weights", None),
    ("rgfopt.experiments", "equal_neighbor_weights", "graph.weights", None),
    ("rgfopt.algorithm", "delta_hat", "graph.delta_hat", None),
    ("rgfopt.analysis", "delta_hat", "graph.delta_hat", None),
    ("rgfopt.experiments", "delta_hat", "graph.delta_hat", None),
    ("rgfopt.algorithm", "matrix_power_gap_series", "graph.power_gap", lambda fn: _power_gap_count),
    ("rgfopt.analysis", "matrix_power_gap_series", "graph.power_gap", lambda fn: _power_gap_count),
    ("rgfopt.oracle", "sample_direction", "oracle.direction", None),
    ("rgfopt.algorithm", "gradient_free_oracle", "oracle.estimator", None),
    ("rgfopt.experiments", "gradient_free_oracle", "oracle.estimator", None),
    ("rgfopt.experiments", "smoothed_value_mc_stats", "oracle.mc", _mc_count),
    ("rgfopt.algorithm:Box", "project", "algorithm.project", None),
    ("rgfopt.algorithm:Ball", "project", "algorithm.project", None),
    ("rgfopt.algorithm", "fit_geometric_decay", "algorithm.fit_decay", None),
    ("rgfopt.analysis", "fit_geometric_decay", "algorithm.fit_decay", None),
    ("rgfopt.algorithm:Trace", "to_csv_text", "algorithm.csv", lambda fn: _csv_count),
    ("rgfopt.experiments", "run", "algorithm.run", None),
    ("rgfopt.experiments", "build_regret_ledger", "analysis.ledger", None),
    ("rgfopt.experiments", "consensus_curve", "analysis.consensus", None),
    ("rgfopt.experiments", "theta_over_gamma", "analysis.theta_ratio", None),
    ("rgfopt.experiments", "spectral_report", "analysis.spectral_report", None),
    ("rgfopt.experiments", "sandwich_table", "experiments.mc_checks", None),
    ("rgfopt.experiments", "unbiasedness_check", "experiments.mc_checks", None),
    ("rgfopt.experiments", "second_moment_check", "experiments.mc_checks", None),
    ("rgfopt.experiments", "experiment_fig2_3", "experiments", None),
    ("rgfopt.experiments", "experiment_diagnostics", "experiments", None),
    ("rgfopt.cli", "experiment_fig4", "experiments", None),
    ("rgfopt.cli", "main", "cli", None),
]

# Stream factories whose streams get their `evaluate` and
# `aggregate_evaluate` wrapped.
_STREAM_FACTORIES = [
    ("rgfopt.algorithm", "make_stream"),
    ("rgfopt.experiments", "make_stream"),
    ("rgfopt.experiments", "norm_stream"),
    ("rgfopt.experiments", "quadratic_norm_stream"),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls, None) if cls else owner


def _traced_factory(rec: Recorder, factory):
    def traced_factory(*args, **kwargs):
        stream = factory(*args, **kwargs)
        changes = {"evaluate": rec.wrap("oracle.evaluate", stream.evaluate)}
        if stream.aggregate_evaluate is not None:
            changes["aggregate_evaluate"] = rec.wrap("oracle.aggregate", stream.aggregate_evaluate)
        return dataclasses.replace(stream, **changes)
    return functools.update_wrapper(traced_factory, factory)


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    patched = []

    def patch(owner, attr, make_wrapper):
        if owner is None:
            return
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, make_wrapper(original))
        patched.append((owner, attr, original))

    try:
        for path, attr, name, counter in _PLAIN:
            patch(_owner(path), attr,
                  lambda fn, name=name, counter=counter: rec.wrap(name, fn, counter and counter(fn)))
        for path, attr in _STREAM_FACTORIES:
            patch(_owner(path), attr, lambda fn: _traced_factory(rec, fn))
        yield rec
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# Per-layer metrics: (name, unit, kind, span or counter name).  "time" is
# the summed duration of the spans, "self" that duration minus the part
# their child spans cover, "calls" the span count, "count" a counter.
LAYER_METRICS = [
    ("graph.weights_s", "s", "time", "graph.weights"),
    ("graph.weights.calls", "count", "calls", "graph.weights"),
    ("graph.delta_hat_s", "s", "time", "graph.delta_hat"),
    ("graph.delta_hat.calls", "count", "calls", "graph.delta_hat"),
    ("graph.power_gap_s", "s", "time", "graph.power_gap"),
    ("graph.power_gap.powers", "count", "count", "graph.power_gap.powers"),
    ("graph.power_gap.gflop_computed", "GFLOP", "count", "graph.power_gap.gflop_computed"),
    ("oracle.direction_s", "s", "time", "oracle.direction"),
    ("oracle.direction.calls", "count", "calls", "oracle.direction"),
    ("oracle.estimator.self_s", "s", "self", "oracle.estimator"),
    ("oracle.estimator.calls", "count", "calls", "oracle.estimator"),
    ("oracle.evaluate_s", "s", "time", "oracle.evaluate"),
    ("oracle.evaluate.calls", "count", "calls", "oracle.evaluate"),
    ("oracle.aggregate_s", "s", "time", "oracle.aggregate"),
    ("oracle.aggregate.calls", "count", "calls", "oracle.aggregate"),
    ("oracle.mc_s", "s", "time", "oracle.mc"),
    ("oracle.mc.points", "count", "count", "oracle.mc.points"),
    ("algorithm.run_s", "s", "time", "algorithm.run"),
    ("algorithm.run.self_s", "s", "self", "algorithm.run"),
    ("algorithm.project_s", "s", "time", "algorithm.project"),
    ("algorithm.project.calls", "count", "calls", "algorithm.project"),
    ("algorithm.fit_decay_s", "s", "time", "algorithm.fit_decay"),
    ("algorithm.csv_s", "s", "time", "algorithm.csv"),
    ("algorithm.csv.bytes", "bytes", "count", "algorithm.csv.bytes"),
    ("analysis.ledger_s", "s", "time", "analysis.ledger"),
    ("analysis.consensus_s", "s", "time", "analysis.consensus"),
    ("analysis.theta_ratio_s", "s", "time", "analysis.theta_ratio"),
    ("analysis.spectral_report_s", "s", "time", "analysis.spectral_report"),
    ("experiments.self_s", "s", "self", "experiments"),
    ("experiments.artifact_bytes", "bytes", "count", "experiments.artifact_bytes"),
    ("experiments.mc_checks.self_s", "s", "self", "experiments.mc_checks"),
    ("cli.self_s", "s", "self", "cli"),
]


def per_rep_layers(rec: Recorder) -> dict[int, dict[str, float]]:
    """LAYER_METRICS for each traced rep.

    Only evaluations made inside the estimator count as `oracle.evaluate`,
    so that its calls are the oracle's two per draw; evaluations made
    elsewhere (the sandwich table's f(x)) still count as child time of
    their caller.
    """
    a = rec.arrays()
    ids = {name: i for i, name in enumerate(rec.names)}
    nid = a["name_id"].astype(np.int64)
    parent = a["parent"].astype(np.int64)
    dur = (a["end_ns"] - a["start_ns"]) / 1e9
    has_parent = parent >= 0
    parent_nid = np.where(has_parent, nid[np.where(has_parent, parent, 0)], -1)
    stray = (nid == ids.get("oracle.evaluate", -1)) & (parent_nid != ids.get("oracle.estimator", -1))
    nid[stray] = -1
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(nid))
    own = dur - child

    out = {}
    for r in sorted(set(a["rep"].tolist()) | set(rec.counts)):
        in_rep = a["rep"] == r
        values = {}
        for metric, _unit, kind, key in LAYER_METRICS:
            if kind == "count":
                values[metric] = float(rec.counts[r][key])
                continue
            sel = in_rep & (nid == ids.get(key, -2))
            if kind == "calls":
                values[metric] = float(sel.sum())
            else:
                values[metric] = float((dur if kind == "time" else own)[sel].sum())
        out[r] = values
    return out
