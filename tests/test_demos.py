"""Every demo script runs standalone, exits cleanly and prints its pinned output.

The pinned stdout of each demo is ``demo_output/<name>.txt``; it does not
depend on the hash seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "demo_output"


def test_all_seven_demos_are_found():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stdout == (PINNED / (demo.stem + ".txt")).read_text()
