"""Every script under demos/, and README's library quick start, runs to
completion from a fresh interpreter; demo 06's law also holds at toy size."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    # run in tmp_path, so files a demo writes land there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_quick_start_runs(tmp_path):
    # the block under "## Quick start (library)", run as written
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[0]) >= 0.0  # the final consensus spread


def test_regret_law_demo_regret_rises_with_omega():
    # demo 06 at toy size: at fixed T a faster-moving minimizer costs more
    spec = importlib.util.spec_from_file_location("regret_law", ROOT / "demos" / "06_regret_law.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    rows = [demo.regret_and_path(omega, (100, 300)) for omega in (0.0, 0.03, 0.1)]
    for k in range(2):
        regrets, paths = zip(*(r[k] for r in rows))
        assert regrets[0] < regrets[1] < regrets[2]
        assert paths[0] == 0.0 < paths[1] < paths[2]
