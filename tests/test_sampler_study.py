"""Smoke test of ``scripts/sampler_study.py``: it runs and prints its three tables.

Its z-scores are Monte-Carlo statistics of a small run and are not asserted.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sampler_study_runs_and_prints_its_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sampler_study.py"), "--n", "3", "--draws", "2000", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    for header in ("recursive sampler on the dual cone:", "quadratic construction (integer multiplicities):",
                   "concentration-cone sampler:"):
        assert header in out.stdout.splitlines()
