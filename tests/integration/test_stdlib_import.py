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


def test_backend_names_do_not_load_the_vectorized_backend():
    """Jobs and the CLI check backend names against
    ``repro.core.analyzer.BACKENDS``; only an actual numpy analysis loads
    :mod:`repro.core.vkernels`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.engine.jobs, repro.harness.cli; "
            "from repro.engine.jobs import AnalysisJob; "
            "AnalysisJob('w', 1, backend='numpy'); "
            "print('repro.core.vkernels' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_cli_import_does_not_load_numpy():
    """NumPy is loaded by the first vectorized decode or analysis, not by
    starting the CLI (``repro.trace.io`` resolves it lazily)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.harness.cli, repro.engine.jobs; "
            "print('numpy' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
