import gc
import glob
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import rgfopt as r
from rgfopt import experiments, oracle
from rgfopt.experiments import (
    experiment_diagnostics,
    experiment_fig2_3,
    experiment_fig4,
    rerun_from_metadata,
    sandwich_table,
    second_moment_check,
    unbiasedness_check,
)
from rgfopt.oracle import constant_stream

import conftest
from conftest import BLAS_KERNELS, array_estimates, blas_kernel, pinned_digest, stream_rows


@pytest.fixture(scope="module")
def fig23_small(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig23")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return experiment_fig2_3(seed=1, horizon=400, out_dir=out)


class TestTrackingExperiment:
    def test_artifact_files_exist(self, fig23_small):
        for key in ("trajectories", "regret", "consensus", "metadata", "plot_script"):
            assert fig23_small.paths[key].exists(), key

    def test_ten_trajectories_present(self, fig23_small):
        lines = fig23_small.paths["trajectories"].read_text().splitlines()
        agents = {int(ln.split(",")[1]) for ln in lines[1:]}
        assert agents == set(range(10))
        assert lines[0].startswith("t,agent,x_0,global_cost,spread,x_star_0")

    def test_regret_rows_cover_horizon(self, fig23_small):
        lines = fig23_small.paths["regret"].read_text().splitlines()
        assert len(lines) - 1 == 400 * 10

    def test_spread_decreases(self, fig23_small):
        trace = fig23_small.trace
        assert trace.spread[400] < trace.spread[100]

    def test_metadata_closure_reproduces_run(self, fig23_small):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            replay = rerun_from_metadata(fig23_small.paths["metadata"])
        assert np.array_equal(replay.x, fig23_small.trace.x)
        assert replay.to_csv_text() == fig23_small.paths["trajectories"].read_text()

    def test_numpy_integer_seed_writes_a_replayable_closure(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = experiment_fig2_3(seed=np.int64(1), horizon=5, out_dir=tmp_path)
            replay = rerun_from_metadata(res.paths["metadata"])
        assert json.loads(res.paths["metadata"].read_text())["config"]["master_seed"] == 1
        assert replay.x.tobytes() == res.trace.x.tobytes()
        assert replay.to_csv_text() == res.paths["trajectories"].read_text()

    def test_metadata_records_graph_and_params(self, fig23_small):
        meta = json.loads(fig23_small.paths["metadata"].read_text())
        assert meta["experiment"] == "fig2_3"
        assert meta["config"]["delta"] == 0.1
        assert meta["config"]["mu_hat"] == 1e-4
        assert len(meta["graph_edges"]) >= 10
        assert "path_length" in meta


class TestAgentSweep:
    def test_small_sweep_artifacts(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = experiment_fig4(seed=2, agent_counts=(4, 8), horizon=250, out_dir=tmp_path)
        assert set(res.mean_time_avg) == {4, 8}
        assert all(len(c) == 250 for c in res.mean_time_avg.values())
        lines = res.paths["series"].read_text().splitlines()
        assert lines[0] == "t,n_agents,mean_time_avg_regret"
        assert len(lines) - 1 == 2 * 250
        meta = json.loads(res.paths["metadata"].read_text())
        assert meta["ring_kind"] == "ring"
        assert set(meta["final_values"]) == {"4", "8"}
        # fig4 records one config per N, so there is no single run to replay
        with pytest.raises(ValueError, match=r"run_meta\.json records no single run.*'configs'"):
            rerun_from_metadata(res.paths["metadata"])

    def test_one_ring_trace_alive_at_a_time(self, tmp_path, monkeypatch):
        # the sweep keeps each ring's curve and warnings, not its trace, so the
        # paper-size sweep holds one ring's histories at a time
        real_run, refs, alive_at_call = experiments.run, [], []

        def recording_run(config):
            alive_at_call.append(sum(ref() is not None for ref in refs))
            trace = real_run(config)
            refs.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(experiments, "run", recording_run)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = experiment_fig4(seed=0, agent_counts=(4, 8), horizon=50, out_dir=tmp_path)
        assert alive_at_call == [0, 0]
        gc.collect()
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]
        assert set(res.final_values) == {4, 8}

    @pytest.mark.parametrize("kwargs", [
        {"agent_counts": (1,)}, {"agent_counts": (4, 1)}, {"horizon": 50.0}, {"seed": True},
        {"horizon": "50"}, {"seed": None}, {"seed": -1}, {"horizon": 0}])
    def test_invalid_per_n_config_creates_no_directory(self, tmp_path, kwargs):
        out = tmp_path / "fig4"
        with pytest.raises(r.ConfigError):
            experiment_fig4(**{"agent_counts": (4,), "horizon": 50, **kwargs}, out_dir=out)
        assert not out.exists()

    def test_one_way_cycle_variant_warns(self):
        # fig4 runs bidirectional rings only; its config on a one-way cycle
        config = r.RunConfig(n_agents=6, graph_kind="cycle", graph_seed=2, horizon=50,
                             master_seed=2, record_surplus=False, record_oracle=False)
        with pytest.warns(RuntimeWarning):
            trace = r.run(config)
        assert any(trace.warnings)


class TestDiagnosticsBundle:
    def test_structure_with_reduced_sampling(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = experiment_diagnostics(seed=3, horizon=300, n_samples=2000,
                                         out_dir=tmp_path)
        assert len(res.sandwich) == 20
        assert set(res.delta_hat_values) == {"cycle_10", "random_10"}
        assert all(0 < v < 1 for v in res.delta_hat_values.values())
        assert len(res.unbiasedness) == 5
        assert [row["dim"] for row in res.second_moment] == [1, 2, 5]
        assert np.isfinite(res.theta_ratio_max)
        for key in ("sandwich", "spectral", "summary"):
            assert res.paths[key].exists()
        summary = json.loads(res.paths["summary"].read_text())
        assert "delta_hat" in summary and "theta_ratio_max" in summary

    def test_spectral_rows_cover_grid(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = experiment_diagnostics(seed=3, horizon=60, n_samples=500,
                                         out_dir=tmp_path)
        for rows in res.spectral.values():
            assert [row.delta for row in rows] == [0.01, 0.05, 0.1, 0.2]


class TestCheckHelpers:
    def test_sandwich_reduced(self):
        rows = sandwich_table(n_samples=4000, seed=77)
        assert len(rows) == experiments.SANDWICH_POINTS
        assert all(row["within"] for row in rows)

    def test_unbiasedness_reduced(self):
        rows = unbiasedness_check(n_draws=4000, seed=13)
        assert len(rows) == experiments.UNBIASED_POINTS
        assert all(row["within_4_sigma"] for row in rows)

    def test_second_moment_reduced(self):
        rows = second_moment_check(n_draws=4000, seed=19)
        assert [row["dim"] for row in rows] == list(experiments.MOMENT_DIMS)
        assert all(row["within"] for row in rows)

    def test_oracle_mean_equals_scalar_draws(self, scalar_direction_blocks):
        # 2500 draws end inside the second block of directions
        stream = experiments.quadratic_norm_stream(3)
        cfg = r.OracleConfig(1, 0.01, 3, rng_seed=2**33)
        points = [np.array([0.3, -0.2, 0.9]), np.array([-0.5, 0.0, 0.1]),
                  np.array([1.0, 1.0, -1.0])]
        blocks = experiments._oracle_mean(stream, cfg, points, 2500)
        scalar_direction_blocks()
        scalar = experiments._oracle_mean(stream, cfg, points, 2500)
        assert len(blocks) == len(scalar) == 3
        for got, want in zip(blocks, scalar):
            assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("name", ["quadratic_norm", "norm", "constant"])
    def test_oracle_mean_equals_a_sequential_loop(self, name, offset):
        # offset None is a single draw: the constant stream's draws are all
        # +-0.0, so there the +0.0 start of the running sums shows in the bits
        stream = {"quadratic_norm": lambda: experiments.quadratic_norm_stream(3),
                  "norm": lambda: r.norm_stream(1, dim=2),
                  "constant": lambda: constant_stream(1, dim=3)}[name]()
        cfg = r.OracleConfig(1, 0.01, stream.dim, rng_seed=41)
        points = [np.linspace(-0.7, 0.9, stream.dim), np.linspace(0.6, -0.4, stream.dim),
                  np.full(stream.dim, 0.25)]
        n = 1 if offset is None else oracle._BLOCK_KEYS + offset
        got = experiments._oracle_mean(stream, cfg, points, n)
        assert len(got) == len(points)
        xi = oracle._direction_block(cfg.rng_seed, cfg.dim, 1, 0, n)
        for x, point_got in zip(points, got):
            draws = array_estimates(stream_rows(name, stream), cfg.mu, np.zeros(n, dtype=int),
                                    np.arange(n), np.tile(x, (n, 1)), xi)
            if name == "constant":
                assert np.signbit(draws[0]).any()
            total, total_sq, norm_sq = np.zeros(stream.dim), np.zeros(stream.dim), 0.0
            for g in draws:  # the former per-draw accumulation, kept as the reference
                total += g
                total_sq += g * g
                norm_sq += g @ g
            mean = total / n
            stderr = np.sqrt(np.maximum(total_sq / n - mean ** 2, 0.0) / n)
            assert [np.asarray(v).tobytes() for v in point_got] == \
                [np.asarray(v).tobytes() for v in (mean, stderr, norm_sq / n)]

    def test_unbiasedness_points_share_each_direction_block(self, monkeypatch):
        # the points draw time-major, so each block is drawn once for all of
        # them, even where a pass crosses a block boundary: three points make
        # passes of 682 times, so the one over t = 2,048 draws from two blocks
        blocks = []
        block = oracle._direction_block
        monkeypatch.setattr(oracle, "_direction_block",
                            lambda *args: blocks.append(args[3:]) or block(*args))
        n_draws = 2 * oracle._BLOCK_KEYS + 5
        unbiasedness_check(n_draws=n_draws, seed=11)
        assert blocks == [(0, 2048), (2048, 4096), (4096, 6144)]
        blocks.clear()
        cfg = r.OracleConfig(1, 0.01, 3, rng_seed=5)
        experiments._oracle_mean(experiments.quadratic_norm_stream(3), cfg,
                                 [np.full(3, v) for v in (-0.5, 0.1, 0.8)], n_draws)
        assert blocks == [(0, 2048), (2048, 4096), (4096, 6144)]

    @pytest.mark.parametrize("n_draws", [0, -3, 2**32 + 1])
    @pytest.mark.parametrize("check", [unbiasedness_check, second_moment_check])
    def test_checks_reject_draw_counts_out_of_range(self, monkeypatch, check, n_draws):
        def no_draw(*args):
            raise AssertionError("a draw was made")
        monkeypatch.setattr(experiments, "gradient_free_oracle", no_draw)
        monkeypatch.setattr(experiments, "smoothed_value_mc_stats", no_draw)
        with pytest.raises(ValueError, match=f"n_draws must be >= 1 and <= {2**32}, got {n_draws}"):
            check(n_draws=n_draws, seed=0)

    @pytest.mark.parametrize("check, seed, digests", [
        (sandwich_table, 2024, {
            "SkylakeX Haswell Sandybridge": "96697e39b822595fef61f321c730b298b9391fde9f8bb40987e04dd2e19d70a4",
        }),
        (unbiasedness_check, 11, {
            "SkylakeX": "f391c8b189ce0294628cbc03973fde4513bf368fd2be804a5b1e94040c8d8bda",
            "Haswell Sandybridge": "bef0a9d833ebeb59628403d8422accd14eab519d407ff3c8f0ca8beeff5cad2e",
        }),
        (second_moment_check, 5, {
            "SkylakeX": "cd80025a95f1250f47e3665fc8149443e7fd161ffeb59a61be65e61b3d953f89",
            "Haswell Sandybridge": "6d5cfdc9b9659b47173a598de2b9b0729503fa054f5e08eb9ad4311daa479e19",
        }),
    ], ids=["sandwich", "unbiasedness", "second_moment"])
    def test_rows_are_pinned(self, check, seed, digests):
        # the gate's seeds at 3,000 samples, which cross a direction block
        rows = check(3000, seed=seed)
        got = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert got == pinned_digest(digests), f"the {blas_kernel()} digest"

    def test_default_output_dir_is_timestamped(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = experiment_fig2_3(seed=5, horizon=20)
        assert res.out_dir.resolve().parent == (tmp_path / "out" / "fig2_3").resolve()
        assert res.paths["metadata"].exists()


# sha256 of every artifact of three small seed-0 experiments, keyed by BLAS
# kernel as conftest.pinned_digest reads them.  A refactor must leave these
# bytes unchanged; an intended output change updates them.
PINNED_SHA256 = {
    "fig2_3": {
        "consensus.csv": {
            "SkylakeX Haswell": "977dd394ce317cb5bf1b922f292e166142ca169c16e2d24a4ca93987c188ae88",
            "Sandybridge": "2661ac20808baf9ae86d76f09884c76debdebe927f62d0e0a91ee0518b06cc79",
        },
        "plot_figs.py": {
            "SkylakeX Haswell Sandybridge": "61f5dc45a6f8708d7887ed20cdbc3cc53b56417a4cfa7d81010e62e42c2f1357",
        },
        "regret.csv": {
            "SkylakeX Haswell": "9c25dccf8cde92a7162eca070d33ba1e72ee47a2622ef7e1c81d46c1b8c791eb",
            "Sandybridge": "eecbabc7bbc50ff11a59df8b40082c3247712cf018367af9ecb204cf6916a6d0",
        },
        "run_meta.json": {
            "SkylakeX": "fba9c5b92c00996d88690d35d8408a82524c599b8274f901ffcc7ef68d37a0c3",
            "Haswell": "f30083f99512b8300e399d87680681eec990d9bcedc54c2a4daaeaa169c8d1a1",
            "Sandybridge": "5431c34bb7e5ff78cafd7395af7e771aa45426978e4f613f9b5ab94bbdb7e564",
        },
        "trajectories.csv": {
            "SkylakeX Haswell": "e0c27a58df300da85d7fc43c49573d67db6447cd54882d656b0d9e835c73f6f3",
            "Sandybridge": "121e4222e5d92b459077e26395c4f1fa2ed7a9668010f6295ce7600fa318320b",
        },
    },
    "fig4": {
        "fig4_series.csv": {
            "SkylakeX Haswell": "c66ffa99653691984667df0b9c3a13533b0b7344e2b8ec57022a5e491ddd6ed4",
            "Sandybridge": "0e6c350a5b098fd4294c2476a2a3cbf0fdb3d58d127edd81ab2591955e539f67",
        },
        "plot_figs.py": {
            "SkylakeX Haswell Sandybridge": "61f5dc45a6f8708d7887ed20cdbc3cc53b56417a4cfa7d81010e62e42c2f1357",
        },
        "run_meta.json": {
            "SkylakeX Haswell": "b74e2552e42392b2896ecf2383103e255ca750acf13ab5e4fe742b6cdaa1e80f",
            "Sandybridge": "b69291c060c23d30a05ffe07ca99319f421570909a3f8621d8a4dd77aba4b241",
        },
    },
    "diagnostics": {
        "diagnostics.json": {
            "SkylakeX": "b6369d9f2d2e51a1c01c20a8931872a170b63a794f8327dc6d72689393958ec8",
            "Haswell": "7e2a6637b11fb5acb270b0348f981f22cda4508945c4c6cc6d211e9d9341dd63",
            "Sandybridge": "4e6f7aeaeeb3fa63999b275236313861092137e38d957c0ca35ecb1796e5632d",
        },
        "sandwich.csv": {
            "SkylakeX Haswell Sandybridge": "40c08aaf076c6d4761f858460c276b5c2389bb0bd28faf64526955b5bcc557c2",
        },
        "spectral.csv": {
            "SkylakeX": "ec44c7dc596f293a4ac3d96256388e3f012bdeacec36950b40ae59e084bf0a02",
            "Haswell": "a5657263b707dd7379bc61ea0a2d3760ee5eeb415eb80928c831d1e618228c0f",
            "Sandybridge": "f37cb08d9a8d19f8e3fffcc7f13b532c40af6c0e6c00aa67edbed64ac1157391",
        },
    },
}
PINNED_RUNS = {
    "fig2_3": lambda out: experiment_fig2_3(seed=0, horizon=300, out_dir=out),
    "fig4": lambda out: experiment_fig4(seed=0, agent_counts=(4, 8), horizon=100, out_dir=out),
    "diagnostics": lambda out: experiment_diagnostics(seed=0, horizon=100, n_samples=500,
                                                      out_dir=out),
}


def test_blas_kernel_is_named_or_unknown(monkeypatch):
    assert blas_kernel()  # "SkylakeX", "Haswell", ... where OpenBLAS is numpy's BLAS
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert blas_kernel() == "unknown"


@pytest.mark.parametrize("kernel", ["unknown", "Zen", "Sandy"])
def test_a_kernel_without_digests_fails_naming_it(monkeypatch, kernel):
    monkeypatch.setattr(conftest, "blas_kernel", lambda: kernel)
    with pytest.raises(pytest.fail.Exception, match=f"for the BLAS kernel '{kernel}'"):
        pinned_digest({"SkylakeX Haswell Sandybridge": "0" * 64})


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_artifacts_match_pinned_digests(name, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        PINNED_RUNS[name](tmp_path)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.iterdir())}
    want = {file: pinned_digest(digests) for file, digests in PINNED_SHA256[name].items()}
    assert got == want, f"the {blas_kernel()} digests"


# every test that pins bytes, by node id from the repository root
PINNED_BYTE_TESTS = [
    "tests/test_experiments.py::test_artifacts_match_pinned_digests",
    "tests/test_experiments.py::TestCheckHelpers::test_rows_are_pinned",
    "tests/test_cli.py::TestSpectralCommand::test_stdout_bytes_are_pinned",
    "tests/test_cli.py::TestSpectralCommand::test_default_grid_bytes_are_pinned_at_larger_n",
]


def test_pinned_bytes_hold_under_older_kernels_and_one_thread():
    # OPENBLAS_CORETYPE acts only on the process it is set for, so the
    # kernels older than this one, and one BLAS thread, each get a pytest
    # process of their own; each checks its own kernel's digest set, and its
    # report header shows that the kernel was forced
    kernel = blas_kernel()
    if kernel not in BLAS_KERNELS:
        pytest.fail(f"no digest set is pinned for the BLAS kernel {kernel!r}")
    kernels = BLAS_KERNELS[:BLAS_KERNELS.index(kernel) + 1]
    envs = [{"OPENBLAS_CORETYPE": older} for older in kernels[:-1]]
    envs.append({"OPENBLAS_NUM_THREADS": "1"})
    root = Path(__file__).resolve().parents[1]
    runs = [subprocess.Popen([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                              *PINNED_BYTE_TESTS], cwd=root, env={**os.environ, **env},
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            for env in envs]
    try:
        for env, expected, proc in zip(envs, kernels, runs):
            out = proc.communicate(timeout=600)[0]
            assert proc.returncode == 0 and f"BLAS kernel: {expected}\n" in out, f"{env}:\n{out}"
    finally:
        for proc in runs:
            proc.kill()
            proc.wait()
