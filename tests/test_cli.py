import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgfopt import algorithm, cli
from rgfopt.algorithm import GRAPH_KINDS, ConfigError, RunConfig
from rgfopt.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from rgfopt.oracle import DIRECTION_LAWS, STREAM_REGISTRY

from conftest import blas_kernel

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def quiet_gain_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def write_config(path, **overrides):
    data = {"horizon": 40, "master_seed": 3, "check_delta_bound": False}
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


class TestRunCommand:
    def test_run_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "trajectories.csv").exists()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["effective_config"]["horizon"] == 40
        assert "run complete" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == EXIT_PARSE
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = main(["run", "--config", str(cfg), "--set", "delta=-0.5",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_unknown_key_override_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["run", "--config", str(cfg), "--set", "warp=9"]) == EXIT_VALIDATION
        capsys.readouterr()

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["run", "--config", str(cfg), "--out", str(blocker)])
        assert code == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err)["error"] == "runtime"

    def test_memory_error_exits_runtime_with_one_json_line(self, tmp_path, capsys, monkeypatch):
        # numpy's _ArrayMemoryError subclasses MemoryError; a stub stands in
        # for an oversized allocation, which is never made here
        def oversized(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000001, 10, 1) and data type float64")
        monkeypatch.setattr(cli, "run", oversized)
        cfg = write_config(tmp_path / "c.json")
        code = main(["run", "--config", str(cfg), "--set", "horizon=1000000000000",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": "runtime", "message": "Unable to allocate 7.28 TiB for an array with shape "
                                            "(1000000000001, 10, 1) and data type float64"}]
        assert not (tmp_path / "o").exists()

    def test_set_override_applies_after_parse(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", horizon=99)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--set", "horizon=25",
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["effective_config"]["horizon"] == 25

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", master_seed=1)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--seed", "42",
                     "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["effective_config"]["master_seed"] == 42

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RGF_SEED", "77")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"horizon": 10, "check_delta_bound": False}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["effective_config"]["master_seed"] == 77

    def test_identical_args_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "trajectories.csv").read_bytes() == (out2 / "trajectories.csv").read_bytes()
        assert (out1 / "run_meta.json").read_bytes() == (out2 / "run_meta.json").read_bytes()

    def test_cli_matches_library_output(self, tmp_path):
        # the CLI is a thin shell over the library API
        import rgfopt as r

        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        trace = r.run(r.RunConfig.from_dict(json.loads(cfg.read_text())))
        assert (out / "trajectories.csv").read_text() == trace.to_csv_text()

    def test_run_over_the_csv_fork_threshold_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        # 10 agents over 2001 steps are 20,010 rows, enough for csv_text to
        # fork on a 2-CPU machine; the command prints no warning line
        import rgfopt as r

        cfg = write_config(tmp_path / "c.json", n_agents=10, horizon=2000)
        assert 10 * 2001 >= 4 * algorithm._CSV_CHUNK_ROWS
        proc = _cli(["run", "--config", str(cfg), "--out", "out"], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        # the one-process path
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        trace = r.run(r.RunConfig.from_dict(json.loads(cfg.read_text())))
        assert (tmp_path / "out" / "trajectories.csv").read_text() == trace.to_csv_text()


BAD_FIELDS = [
    ("delta", math.nan),
    ("gamma0", math.nan),
    ("mu_hat", math.inf),
    ("n_agents", 2.5),
    ("horizon", True),
    ("dim", "2"),
    ("graph_seed", -2),
    ("master_seed", -1),
    ("direction_law", "cauchy"),
    ("extra_edge_prob", 2.0),
    ("extra_edge_prob", -1.0),
]


@pytest.mark.parametrize("key, value", BAD_FIELDS, ids=[k for k, _ in BAD_FIELDS])
def test_bad_field_rejected_by_validate_and_cli(tmp_path, capsys, key, value):
    # validate() runs when a RunConfig is built, by any route
    for build in (lambda: RunConfig(**{key: value}),
                  lambda: dataclasses.replace(RunConfig(), **{key: value}),
                  lambda: RunConfig.from_dict({key: value})):
        with pytest.raises(ConfigError, match=key):
            build()
    cfg = write_config(tmp_path / "c.json", **{key: value})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and key in err["message"]
    assert not (tmp_path / "o").exists()


# `rgfopt run` rejects a non-object file or an unknown key before applying
# --set, then reads RGF_SEED, then checks the values of the effective config
@pytest.mark.parametrize("data, sets, env_seed, code", [
    ({"horizon": -1, "check_delta_bound": False}, ["horizon=5"], None, EXIT_OK),
    ([1, 2], ["horizon=5"], None, EXIT_VALIDATION),
    ({"warp": 9}, [], "abc", EXIT_VALIDATION),
    ({"horizon": -1}, [], "abc", EXIT_PARSE),
], ids=["bad_value_replaced_by_set", "list_file", "unknown_key_before_env_seed",
        "env_seed_before_bad_value"])
def test_run_failure_order(tmp_path, capsys, monkeypatch, data, sets, env_seed, code):
    if env_seed is None:
        monkeypatch.delenv("RGF_SEED", raising=False)
    else:
        monkeypatch.setenv("RGF_SEED", env_seed)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv + [a for s in sets for a in ("--set", s)]) == code
    capsys.readouterr()
    assert (tmp_path / "o").exists() == (code == EXIT_OK)


@pytest.mark.parametrize("kind", list(GRAPH_KINDS))
def test_extra_edge_prob_rejected_before_graph_set_up(tmp_path, capsys, monkeypatch, kind):
    def no_graph(*args):
        raise AssertionError("graph set-up reached")

    monkeypatch.setattr("rgfopt.algorithm.make_graph", no_graph)
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    argv = ["run", "--config", str(cfg), "--set", f"graph_kind={kind}",
            "--set", "extra_edge_prob=2.0", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "message": "extra_edge_prob must be in [0, 1], got 2.0"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["run", "--config", "CFG"],
                                  ["experiment", "fig2_3", "--horizon", "5"]])
def test_non_integer_env_seed_is_a_parse_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("RGF_SEED", "abc")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"horizon": 5}))
    argv = [str(cfg) if a == "CFG" else a for a in argv] + ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "RGF_SEED" in err["message"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["teleport"]) == EXIT_PARSE
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_PARSE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "rgfopt" in capsys.readouterr().out


class TestExperimentCommand:
    def test_fig2_3_small(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", "fig2_3", "--horizon", "60", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trajectories.csv").exists()
        assert "fig2_3 complete" in capsys.readouterr().out

    def test_diagnose_alias(self, tmp_path, capsys):
        out = tmp_path / "diag"
        code = main(["diagnose", "--horizon", "50", "--samples", "500", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "diagnostics.json").exists()
        capsys.readouterr()


class TestSpectralCommand:
    def test_stdout_report(self, capsys):
        code = main(["spectral", "--graph", "cycle", "--n", "6",
                     "--delta-grid", "0.01,0.05"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "delta,delta_hat,lambda_fit,c_fit,r_squared,geometric,error"
        assert len(lines) == 3

    def test_written_to_file(self, tmp_path):
        target = tmp_path / "spec.csv"
        code = main(["spectral", "--graph", "random", "--n", "8",
                     "--graph-seed", "4", "--delta-grid", "0.1", "--out", str(target)])
        assert code == EXIT_OK
        assert target.read_text().count("\n") == 2

    def test_default_grid_and_graph_choices(self, capsys):
        assert main(["spectral"]) == EXIT_OK
        default = capsys.readouterr().out
        assert main(["spectral", "--delta-grid", "0.01,0.05,0.1,0.2"]) == EXIT_OK
        assert capsys.readouterr().out == default
        assert main(["spectral", "--help"]) == EXIT_OK
        assert "{cycle,ring,complete,random}" in capsys.readouterr().out

    def test_bad_grid(self, capsys):
        assert main(["spectral", "--delta-grid", "a,b"]) == EXIT_PARSE
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_stdout_bytes_are_pinned(self, capsys):
        # any change to the report's bytes must be deliberate
        assert main(["spectral", "--graph", "random", "--n", "8", "--graph-seed", "4",
                     "--delta-grid", "0.1,-1"]) == EXIT_OK
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == \
            "e1399416288b28c9a220d7cee7ce2668f681fead1e3bcc8fe25f77f067ab5508", \
            f"pinned under SkylakeX, run under {blas_kernel()}"

    @pytest.mark.parametrize("graph, n, digest", [
        ("ring", "100", "bdd544d49f9ee1480aaa291e33ebe5a82907bb307834f3c6c5e902218093dc0a"),
        ("cycle", "37", "f00222d9c42bb40696c830db5e3b3cef897b3f6c414f4d2dccf8c0eaf5063cbd"),
    ])
    def test_default_grid_bytes_are_pinned_at_larger_n(self, capsys, graph, n, digest):
        # every fitted column comes from the 200-power gap series of a 2N x 2N matrix
        assert main(["spectral", "--graph", graph, "--n", n]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, \
            f"pinned under SkylakeX, run under {blas_kernel()}"


def _cli(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RGF_SEED", None)
    return subprocess.run([sys.executable, "-m", "rgfopt.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=cwd)


# (argv, exit code, error kind, message fragment); OUT is the --out directory
# that must not appear, CFG_DIR a directory, CFG_BYTES a non-UTF-8 file,
# CFG_LIST a JSON list, CFG_TINY_GAMMA a config whose step size underflows,
# CFG_EMPTY the config `{}`.
FAILURE_CONTRACT = [
    (["experiment", "diagnostics", "--samples", "0", "--out", "OUT"],
     EXIT_VALIDATION, "validation", "n_samples >= 1"),
    (["diagnose", "--samples", "-3", "--out", "OUT"], EXIT_VALIDATION, "validation", "n_samples >= 1"),
    (["experiment", "fig4", "--horizon", "0", "--out", "OUT"], EXIT_VALIDATION, "validation",
     "horizon >= 1"),
    (["experiment", "diagnostics", "--horizon", "5", "--out", "OUT"], EXIT_VALIDATION, "validation",
     "horizon >= 10"),
    (["run", "--config", "CFG_DIR", "--out", "OUT"], EXIT_PARSE, "config", "cfg_dir"),
    (["run", "--config", "CFG_BYTES", "--out", "OUT"], EXIT_PARSE, "config", "bytes.json"),
    (["spectral", "--graph", "random", "--graph-seed", "-1"], EXIT_VALIDATION, "validation",
     "seed must be >= 0"),
    (["run", "--config", "CFG_LIST", "--out", "OUT"], EXIT_VALIDATION, "validation", "JSON object"),
    (["experiment", "fig2_3", "--samples", "7", "--out", "OUT"], EXIT_PARSE, "config",
     "--samples applies to diagnostics only"),
    (["experiment", "fig4", "--samples", "7", "--out", "OUT"], EXIT_PARSE, "config",
     "--samples applies to diagnostics only"),
    (["run", "--config", "CFG_TINY_GAMMA", "--out", "OUT"], EXIT_VALIDATION, "validation",
     "gamma0=5e-324 is too small"),
    (["run", "--config", "CFG_EMPTY", "--set", "extra_edge_prob=2.0", "--out", "OUT"],
     EXIT_VALIDATION, "validation", "extra_edge_prob must be in [0, 1], got 2.0"),
    (["run", "--config", "CFG_EMPTY", "--set", "feasible_lo=-1e308", "--set", "feasible_hi=1e308",
      "--out", "OUT"], EXIT_VALIDATION, "validation", "feasible_hi - feasible_lo overflows"),
    (["run", "--config", "CFG_EMPTY", "--set", f"dim={10**14}", "--out", "OUT"], EXIT_VALIDATION,
     "validation", "the float histories exceed numpy's index range"),
    (["spectral", "--n", str(10**10)], EXIT_VALIDATION, "validation",
     "adjacency matrix exceeds numpy's index range"),
]


@pytest.mark.parametrize("argv, code, kind, fragment", FAILURE_CONTRACT,
                         ids=[" ".join(a[:-2] if a[-1] == "OUT" else a)
                              for a, *_ in FAILURE_CONTRACT])
def test_failure_exits_with_one_json_error_line(tmp_path, argv, code, kind, fragment):
    (tmp_path / "cfg_dir").mkdir()
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "tiny_gamma.json").write_text('{"gamma0": 5e-324}')
    (tmp_path / "empty.json").write_text("{}")
    slots = {"OUT": tmp_path / "out", "CFG_DIR": tmp_path / "cfg_dir",
             "CFG_BYTES": tmp_path / "bytes.json", "CFG_LIST": tmp_path / "list.json",
             "CFG_TINY_GAMMA": tmp_path / "tiny_gamma.json", "CFG_EMPTY": tmp_path / "empty.json"}
    proc = _cli([str(slots.get(a, a)) for a in argv], tmp_path)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["error"] == kind and fragment in err["message"]
    assert not (tmp_path / "out").exists()


# Sizes whose arrays cannot exist: each allocation is refused at once (exit 4)
# or the size is rejected before any allocation (exit 3).  At the default
# horizon the histories of 10**8 agents need 3.6 TiB; a machine that grants
# them lazily then fails on the 8.9 PiB adjacency matrix, or at 10**10 agents
# on its size.  No array of these sizes is ever written to.
_OVERSIZED = {
    "n_agents=10**8": ["run", "--set", f"n_agents={10**8}"],
    "n_agents=10**10": ["run", "--set", f"n_agents={10**10}"],
    "n_agents=10**8 horizon=1": ["run", "--set", f"n_agents={10**8}", "--set", "horizon=1"],
    "dim=10**14": ["run", "--set", f"dim={10**14}"],
    "spectral --n 10**10": ["spectral", "--n", str(10**10)],
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED))
def test_oversized_input_fails_at_once_with_one_json_line(tmp_path, capsys, name):
    argv = _OVERSIZED[name]
    if argv[0] == "run":
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        argv = ["run", "--config", str(cfg), *argv[1:], "--out", str(tmp_path / "o")]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert code in (EXIT_VALIDATION, EXIT_RUNTIME)
    assert lines == [{"error": "validation" if code == EXIT_VALIDATION else "runtime",
                      "message": lines[0]["message"]}]
    assert elapsed < 2.0, f"{name} took {elapsed:.2f} s"
    assert not (tmp_path / "o").exists()


def test_warnings_are_json_lines_on_success(tmp_path, capsys):
    proc = _cli(["experiment", "fig2_3", "--horizon", "0", "--out", "out"], tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = [json.loads(line) for line in proc.stderr.splitlines()]
    assert lines and all(line.keys() == {"warning", "message"} for line in lines)
    assert {line["warning"] for line in lines} == {"RuntimeWarning"}
    # an ignore filter set by an in-process caller still silences them
    assert main(["experiment", "fig2_3", "--horizon", "0", "--out", str(tmp_path / "in")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_error_line_follows_the_warnings(tmp_path):
    # run() warns about the gain, then writing into a regular file fails
    cfg = write_config(tmp_path / "c.json", check_delta_bound=True)
    (tmp_path / "taken").write_text("")
    proc = _cli(["run", "--config", str(cfg), "--out", "taken"], tmp_path)
    assert proc.returncode == EXIT_RUNTIME, proc.stderr
    lines = [json.loads(line) for line in proc.stderr.splitlines()]
    assert len(lines) >= 2 and "warning" in lines[0]
    assert [i for i, line in enumerate(lines) if "error" in line] == [len(lines) - 1]
    assert lines[-1]["error"] == "runtime"


def test_huge_ball_ends_with_a_runtime_error(tmp_path, capsys):
    # every cost near norm 1e300 overflows, so the first step fails; set-up
    # draws the initial points in closed form and cannot loop on them
    cfg = write_config(tmp_path / "c.json", feasible_kind="ball", ball_radius=1e300, dim=20)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
        {"error": "runtime", "message": "step failed at t=0: non-finite objective value for "
                                        "agent 0 at t=0: f(x+mu*xi)=inf, f(x)=inf"}]


_CHOICES = {"graph_kind": [*GRAPH_KINDS], "weight_rule": ["equal_neighbor"],
            "direction_law": [*DIRECTION_LAWS], "schedule_kind": ["inv_sqrt", "constant"],
            "feasible_kind": ["box", "ball"], "stream_name": [*STREAM_REGISTRY]}
# the fields that size a run's arrays: (least valid value, cap on any integer drawn)
_SIZES = {"n_agents": (2, 6), "dim": (1, 4), "horizon": (0, 5)}
_BY_TYPE = {"int": st.integers(0, 2**70), "float": st.floats(1e-3, 1.0), "bool": st.booleans()}
_VALID = {f.name: st.sampled_from(_CHOICES[f.name]) if f.type == "str" else _BY_TYPE[f.type]
          for f in dataclasses.fields(RunConfig)}
_VALID.update({name: st.integers(lo, cap) for name, (lo, cap) in _SIZES.items()})
_BROKEN = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                                                  5e-324, -5e-324, -0.0]),
                    st.none(), st.booleans(), st.text(max_size=3),
                    st.lists(st.integers(-2, 2), max_size=2),
                    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def _run_configs(draw):
    """A RunConfig JSON object of valid values of some fields, with up to two
    fields (or an unknown key) holding a wrong type, a non-finite or extreme
    float, or an integer that is negative or huge where it cannot size a run."""
    data = draw(st.fixed_dictionaries({k: _VALID[k] for k in _SIZES},
                                      optional={k: v for k, v in _VALID.items() if k not in _SIZES}))
    for name in draw(st.sets(st.sampled_from([*_VALID, "warp"]), max_size=2)):
        cap = _SIZES.get(name, (None, 2**70))[1]
        data[name] = draw(st.one_of(_BROKEN, st.integers(-2**70, cap)))
    return data


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=_run_configs())
def test_run_fuzz_exits_with_a_documented_code_and_json_stderr(data):
    # any config object ends with exit 0, 2, 3 or 4 and JSON lines on
    # stderr, the last of them the one error line of a failure
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("always")
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_RUNTIME)
    lines = [json.loads(line) for line in err.getvalue().splitlines()]
    assert all(line.keys() in ({"warning", "message"}, {"error", "message"}) for line in lines)
    errors = [i for i, line in enumerate(lines) if "error" in line]
    assert errors == ([] if code == EXIT_OK else [len(lines) - 1])
