"""The package's exports load on first use, so one layer imports without the rest."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import ranguard

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


def test_every_export_resolves_to_its_module_object():
    run_fresh(
        "import importlib, ranguard\n"
        "for name in ranguard.__all__:\n"
        "    value = getattr(ranguard, name)\n"
        "    home = importlib.import_module(ranguard._MODULE_OF[name])\n"
        "    assert value is getattr(home, name), name\n"
        "from ranguard import *\n"
        "assert set(ranguard.__all__) <= set(dir(ranguard))\n"
        # a submodule that is not an export still imports by name
        "from ranguard import databus, ml\n"
        "assert (databus.__name__, ml.__name__) == ('ranguard.databus', 'ranguard.ml')\n"
    )


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ranguard.no_such_name  # noqa: B018
