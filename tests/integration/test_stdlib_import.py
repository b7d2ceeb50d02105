"""The package needs nothing beyond the standard library to import.

``python -S`` skips ``site``, so no installed distribution (NumPy or any
other) is importable: every optional dependency must be gated, and no
required one may creep back in.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

MODULES = "repro, repro.verify, repro.engine, repro.serve, repro.harness.cli"


def test_imports_with_stdlib_only():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-S", "-c", f"import {MODULES}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
