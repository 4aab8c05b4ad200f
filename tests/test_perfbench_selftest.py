"""The benchmark harness's own self-test, run as it is shipped.

perfbench traces package functions by name and pins facts about what
the workloads produce, so a change under ``src/`` can break it without
any package test noticing.  This runs ``perfbench/selftest.py`` unedited
in a fresh process with BLAS on one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
