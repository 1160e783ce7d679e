"""Self-test of the benchmark at toy sizes: every metric that BENCHMARK.json
names is printed with its unit, each draw makes exactly two evaluations,
and tracing leaves the artifacts byte-identical."""

import json

import pytest

import run
import spans
from workloads import WORKLOADS

# run() warns whenever the gain exceeds its conservative bound, which the
# canned experiments always do.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module", autouse=True)
def rgfopt_from_checkout():
    run.import_rgfopt()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_at_toy_size(name):
    workload = WORKLOADS[name]
    plain, plain_record = run.measure(name, seed=1, seconds=0, trace=False, sizes=workload.toy)
    traced, traced_record = run.measure(name, seed=1, seconds=0, trace=True, sizes=workload.toy)

    assert plain["correct"], plain_record["problems"]
    assert traced["correct"], traced_record["problems"]
    assert (plain["attempted"], plain["failed"]) == (1, 0)
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _units("end_to_end")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layers["oracle.evals_per_draw"] == 2.0
    assert layers["oracle.direction.calls"] == workload.draws(workload.toy)
    assert layers["oracle.evaluate.calls"] == 2 * workload.draws(workload.toy)
    assert traced_record["digests"] == plain_record["digests"]


def test_self_time_excludes_children_and_stray_evaluations():
    rec = spans.Recorder()
    evaluate = rec.wrap("oracle.evaluate", lambda: None)
    estimator = rec.wrap("oracle.estimator", lambda: (evaluate(), evaluate()))
    body = rec.wrap("algorithm.run", lambda: (estimator(), evaluate()))
    body()

    layers = spans.per_rep_layers(rec)[0]
    a = rec.arrays()
    dur = (a["end_ns"] - a["start_ns"]) / 1e9
    # spans in call order: run, estimator, evaluate, evaluate, evaluate
    assert layers["oracle.evaluate.calls"] == 2
    assert layers["oracle.estimator.calls"] == 1
    assert layers["algorithm.run.self_s"] == pytest.approx(dur[0] - dur[1] - dur[4])
    assert layers["oracle.estimator.self_s"] == pytest.approx(dur[1] - dur[2] - dur[3])


def test_count_identities_hold_without_direction_spans():
    workload = WORKLOADS["track10"]
    draws = workload.draws(workload.toy)
    counts = {"oracle.estimator.calls": draws, "oracle.evaluate.calls": 2 * draws,
              "oracle.direction.calls": 0}
    assert run._count_problems(workload, workload.toy, {0: counts}) == []
    for broken in ({"oracle.evaluate.calls": draws}, {"oracle.estimator.calls": draws - 1},
                   {"oracle.direction.calls": draws + 1}):
        assert run._count_problems(workload, workload.toy, {0: counts | broken})
