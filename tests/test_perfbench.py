import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # The benchmark wraps solver entry points by name and samples per-solve
    # latencies; a renamed entry point or an empty sample fails its self-test,
    # and so does a RuntimeWarning, as in the demo runs.
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
