"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, hash_seed, **extra_env):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed,
               **extra_env)
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    proc = run_demo(demo, "0")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_output_independent_of_hash_seed(demo):
    """Nothing printed may depend on set iteration order.  A set of two
    labels prints in either order with even odds, so one pair of seeds can
    miss it; three seeds make that less likely."""
    assert len({run_demo(demo, seed).stdout for seed in ("0", "1", "2")}) == 1


def test_raw_circuit_demo_removes_its_temp_file(tmp_path):
    proc = run_demo(ROOT / "demos" / "05_raw_circuit_input.py", "0",
                    TMPDIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
