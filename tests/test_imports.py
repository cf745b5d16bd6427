"""Importing the package loads no optional heavy dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by the oracles
    probe = (
        "import sys; import pumpcausal, pumpcausal.pipeline, pumpcausal.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"
