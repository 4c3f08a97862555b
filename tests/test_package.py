"""The package imports none of its modules, so one layer imports without the rest."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> None:
    """Run code in a new interpreter that imports ranguard from this checkout."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_databus_imports_without_numpy_or_the_other_layers():
    run_fresh(
        "import ranguard.databus\n"
        "loaded = {'numpy', 'ranguard.pipeline', 'ranguard.kpm', 'ranguard.ml'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )


def test_each_module_imports_by_name_from_the_package():
    run_fresh(
        "from ranguard import databus, ml, pipeline\n"
        "assert (databus.__name__, ml.__name__, pipeline.__name__) == "
        "('ranguard.databus', 'ranguard.ml', 'ranguard.pipeline')\n"
    )
