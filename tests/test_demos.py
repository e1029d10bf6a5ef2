import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_blas_threads_pinned_before_numpy_loads():
    """conftest.py pins one BLAS thread for this process and the demos'
    subprocesses; the pin only holds if numpy was not yet imported."""
    import conftest
    assert not conftest.NUMPY_IMPORTED_BEFORE_PIN
    assert os.environ["OPENBLAS_NUM_THREADS"]
