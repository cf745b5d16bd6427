"""Importing the package loads numpy and the standard library, nothing else;
the command-line entry point runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    # a fresh interpreter: this test process has scipy loaded by the oracles
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )


def test_import_loads_only_numpy_and_the_standard_library():
    # modules loaded before the import (site hooks) are not the package's;
    # __mp_main__ is multiprocessing's second name for __main__
    probe = (
        "import sys; before = set(sys.modules); "
        "import pumpcausal, pumpcausal.pipeline, pumpcausal.cli; "
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "allowed = {'numpy', 'pumpcausal', '__mp_main__'}; "
        "print(sorted(added - set(sys.stdlib_module_names) - allowed))"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_module_entry_point():
    done = _python("-m", "pumpcausal.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: pumpcausal")
    done = _python("-m", "pumpcausal.cli", "nosuch")
    assert done.returncode == 1
    assert done.stderr.startswith("usage: pumpcausal")
    assert "invalid choice: 'nosuch'" in done.stderr
    assert "Traceback" not in done.stderr
