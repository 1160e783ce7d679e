#!/usr/bin/env python3
"""rgfopt benchmark harness.

    python3 perfbench/run.py --workload {track10,ring_sweep,mc_diag} \
        --seed N --seconds S --trace {0,1}

Runs one workload in this process as a closed loop: a rep starts when the
previous one has finished, until S seconds have passed.  With --trace 0 it
prints the end-to-end metrics of untraced reps, each followed by machine-
speed probes and one set-up sample in a fresh interpreter; with --trace 1
it spends half the time on untraced reps and half on traced ones and
prints the per-layer metrics.  Every rep's output is checked.  The last line of
standard output is the JSON result; the line before it is the run record
(environment, per-rep times, problems found), which is also written to
.bench_out/ together with the spans of a traced run.

perfbench/pinned.json holds the seed-0 artifact digests.  When an intended
output change lands, copy the `digests` of a seed-0 run record into it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED = HERE / "pinned.json"
PINNED_SEED = 0
SETUP_TIMEOUT_S = 150
PROBE_LOOPS = 300_000
PROBES_PER_REP = 5
# The probe's time at the reference machine speed the timings are referred
# to: about its time on a quiet 2-vCPU x86_64 VM (Python 3.11).
REFERENCE_PROBE_S = 0.020
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "agent_steps_per_s": "1/s",
              "oracle_draws_per_s": "1/s", "peak_rss_mb": "MiB"}
TRACE_EXTRA = {"oracle.evals_per_draw": "evals/draw", "trace.wall_s": "s", "trace.overhead_s": "s"}

# Runs in a fresh interpreter: the import plus every config's set-up
# (graph, weights, stream, delta_hat, gain fit, initial record).
SETUP_CHILD = """
import json, sys, time, warnings
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rgfopt
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    for data in json.loads(sys.argv[2]):
        rgfopt.run(rgfopt.RunConfig.from_dict(dict(data, horizon=0)))
print(time.perf_counter() - t0)
"""


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use.  Must run before
    numpy is imported; set-up children inherit the setting."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def import_rgfopt():
    """Import rgfopt from this checkout's sources, never from elsewhere."""
    package = SRC / "rgfopt"
    if not (package / "__init__.py").is_file():
        sys.exit(f"rgfopt sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import rgfopt
    if Path(rgfopt.__file__).resolve().parent != package:
        sys.exit(f"imported rgfopt from {rgfopt.__file__}, not from {package}")
    return rgfopt


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            if (out / name).is_file() else "missing" for name in names}


def pinned_digests(workload, seed: int, sizes: dict) -> dict | None:
    """Pinned artifact digests when this run is the pinned seed at the
    benchmark's sizes, else None."""
    if seed != PINNED_SEED or sizes != workload.sizes:
        return None
    entry = json.loads(PINNED.read_text())[workload.name]
    if entry["sizes"] != sizes:
        raise ValueError(f"{PINNED.name} pins {workload.name} at sizes {entry['sizes']}")
    return entry["sha256"]


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop that does not touch rgfopt: a
    gauge of the machine's speed at that moment."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def setup_seconds(configs: list) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(configs)],
                          cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


class Session:
    """Reps of one workload at one seed and size, with every output check."""

    def __init__(self, workload, seed: int, sizes: dict, out: Path):
        self.workload, self.seed, self.sizes, self.out = workload, seed, sizes, out
        self.pinned = pinned_digests(workload, seed, sizes)
        self.reference = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def rep(self) -> float:
        """One rep; returns its wall time and records what its checks found."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            result = self.workload.rep(self.seed, self.sizes, self.out)
        except Exception as exc:  # a failing rep is counted, not fatal
            wall = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            wall = time.perf_counter() - t0
            problems = self._check(result)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name} rep {self.attempted}: {p}" for p in problems]
        return wall

    def _check(self, result) -> list[str]:
        try:
            problems = self.workload.validate(result, self.out, self.seed, self.sizes,
                                              self.pinned is not None)
        except Exception as exc:  # malformed output is a failed check
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        found = digests(self.out, self.workload.artifacts)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            problems.append(f"artifacts differ from the first rep: {found}")
        if self.pinned is not None and found != self.pinned:
            problems.append(f"artifacts differ from the pinned digests: {found}")
        return problems

    def loop(self, seconds: float, recorder=None, after_rep=None) -> list[float]:
        """Closed loop for `seconds`, at least one rep; traced when a
        recorder is given.  `after_rep()` runs after each rep, inside the
        window but outside the rep's wall time."""
        walls = []
        deadline = time.perf_counter() + seconds
        while True:
            if recorder is not None:
                recorder.rep_index = len(walls)
            walls.append(self.rep())
            if recorder is not None:
                size = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
                recorder.counts[recorder.rep_index]["experiments.artifact_bytes"] += size
            if after_rep is not None:
                after_rep()
            if time.perf_counter() >= deadline:
                return walls


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _count_problems(workload, sizes, layers: dict) -> list[str]:
    """One estimate per expected draw, two evaluations per estimate, and one
    direction per draw while sample_direction is still called per draw."""
    problems = []
    expected = workload.draws(sizes)
    for rep, v in layers.items():
        estimates, directions = v["oracle.estimator.calls"], v["oracle.direction.calls"]
        if estimates != expected:
            problems.append(f"traced rep {rep}: {estimates:.0f} estimates, expected {expected}")
        if v["oracle.evaluate.calls"] != 2 * estimates:
            problems.append(f"traced rep {rep}: {v['oracle.evaluate.calls']:.0f} evaluations "
                            f"for {estimates:.0f} estimates")
        # 0 means the direction is no longer drawn through the wrapped
        # function: reported as 0, not an error.
        if directions not in (0, estimates):
            problems.append(f"traced rep {rep}: {directions:.0f} directions "
                            f"for {estimates:.0f} estimates")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    sizes = dict(workload.sizes if sizes is None else sizes)
    out = OUT / name
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "sizes": sizes, "env": environment()}

    # Warm-up at toy size: lazy imports and first calls; its metadata also
    # names the run configs whose set-up is timed.
    warm = Session(workload, seed, dict(workload.toy), out)
    warm.rep()
    problems = list(warm.problems)
    session = Session(workload, seed, sizes, out)

    if not trace:
        setups, probes = [], []
        try:
            configs = workload.setup_configs(out)
        except (OSError, KeyError, ValueError) as exc:
            configs = None
            problems.append(f"set-up configs unreadable: {exc}")

        # Probes and set-up samples alternate with the reps, so all see the
        # same stretch of the machine's speed.  A failed set-up sample stops
        # set-up sampling.
        def between_reps():
            nonlocal configs
            probes.extend(machine_probe() for _ in range(PROBES_PER_REP))
            if configs is None:
                return
            try:
                setups.append(setup_seconds(configs))
            except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
                problems.append(f"set-up timing failed: {exc}")
                configs = None

        walls = session.loop(seconds, after_rep=between_reps)
        # A shared machine's speed drifts by tens of percent within minutes
        # (see README.md).  Times are referred to the reference speed, so
        # that runs at different moments compare; the raw times stay in the
        # run record.  Means, not medians: the speed switches between slow
        # and fast stretches, and the mean of the rep times and the mean of
        # the probes weigh those stretches alike, where two medians can each
        # land in a different one.
        speed = REFERENCE_PROBE_S / statistics.fmean(probes)
        wall = statistics.fmean(walls) * speed
        values = {
            "wall_s": wall,
            # A failed set-up reads as the timeout; `correct` is false then.
            "setup_s": statistics.fmean(setups) * speed if setups else float(SETUP_TIMEOUT_S),
            "agent_steps_per_s": workload.agent_steps(sizes) / wall,
            "oracle_draws_per_s": workload.draws(sizes) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _metric_block(values, END_TO_END)
        record.update(rep_wall_s=walls, setup_s_samples=setups, probe_s=probes,
                      speed_factor=speed)
    else:
        walls = session.loop(seconds / 2)
        recorder = spans.Recorder()
        with spans.traced(recorder):
            traced_walls = session.loop(seconds / 2, recorder)
        layers = spans.per_rep_layers(recorder)
        problems += _count_problems(workload, sizes, layers)
        values = {metric: statistics.median(v[metric] for v in layers.values())
                  for metric, *_ in spans.LAYER_METRICS}
        estimates = values["oracle.estimator.calls"]
        values["oracle.evals_per_draw"] = values["oracle.evaluate.calls"] / estimates if estimates else 0.0
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        units = {metric: unit for metric, unit, *_ in spans.LAYER_METRICS} | TRACE_EXTRA
        metrics = _metric_block(values, units)
        OUT.mkdir(exist_ok=True)
        recorder.save(OUT / f"spans-{name}-seed{seed}.npz", name)
        record.update(rep_wall_s=walls, traced_rep_wall_s=traced_walls,
                      per_rep_layers={str(k): v for k, v in layers.items()})

    problems += session.problems
    record["digests"] = session.reference
    result = {"correct": not problems and session.failed == 0,
              "attempted": session.attempted, "failed": session.failed, "metrics": metrics}
    record["problems"] = problems
    return result, record


def main(argv=None) -> int:
    cap_blas_threads()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_rgfopt()
    # run() warns on every gain above its conservative bound; the
    # experiments' metadata already records those warnings.
    warnings.simplefilter("ignore", RuntimeWarning)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "per_rep_layers"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
