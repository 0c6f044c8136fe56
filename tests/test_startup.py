"""The CLI starts without scipy's or scipy.linalg's package init, and binds the very LAPACK and BLAS wrappers they export."""

import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg.blas
import scipy.linalg.lapack

from arid import numerics

SRC = str(Path(__file__).resolve().parent.parent / "src")
WRAPPERS = {"lapack": ("dpbtrf", "dptsv", "dpbsv"), "blas": ("dtbsv", "dgemv")}


def _fresh_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_linalg_unloaded():
    code = "import sys, arid.cli; print('scipy' in sys.modules, 'scipy.linalg' in sys.modules)"
    assert _fresh_python(code) == "False False"


@pytest.mark.parametrize("first", ["arid.numerics", "scipy.linalg"])
def test_wrappers_are_scipy_linalgs_in_either_import_order(first):
    second = "scipy.linalg" if first == "arid.numerics" else "arid.numerics"
    checks = " and ".join(
        f"numerics.{name} is scipy.linalg.{module}.{name}"
        for module, names in WRAPPERS.items() for name in names
    )
    code = f"import {first}, {second}, scipy.linalg.lapack, scipy.linalg.blas\nfrom arid import numerics\nprint({checks})"
    assert _fresh_python(code) == "True"


def test_missing_extension_files_fall_back_to_the_public_modules(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    for name, module in (("_flapack", scipy.linalg.lapack), ("_fblas", scipy.linalg.blas)):
        assert numerics._compiled_module(name, module.__name__) is module
