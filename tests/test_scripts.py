"""Smoke runs of the example scripts, which use the library API directly."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, n_points", [
    ("run_cube.py", ["--n", "5"], 25),
    ("run_monks.py", ["--n", "2"], 4),
])
def test_example_script_runs(script, args, n_points):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--workers", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"step 2: {n_points} points" in proc.stdout
