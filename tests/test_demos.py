import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd=ROOT):
    """Run Python with ``src`` on the path and every RuntimeWarning an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # The demos use the public API the way a reader would; one that no
    # longer runs means the API moved under it.  Each runs as a copy in
    # tmp_path, so what it writes beside itself stays out of the checkout.
    copy = shutil.copy(demo, tmp_path)
    done = run_python([copy], cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr


def test_readme_quickstart_runs():
    # The README's first python block is the library quickstart; it must
    # run as written and end by printing the run's status.
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("converged"), done.stdout
