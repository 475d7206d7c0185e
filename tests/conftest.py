"""Shared fixtures."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfzeta.regularity

SRC = Path(mfzeta.__file__).resolve().parents[1]


@pytest.fixture
def independence_calls(monkeypatch) -> list:
    """Records every check_rational_independence call that prepare makes."""
    calls = []
    original = mfzeta.regularity.check_rational_independence

    def counted(values):
        calls.append(tuple(values))
        return original(values)

    monkeypatch.setattr(mfzeta.regularity, "check_rational_independence", counted)
    return calls


@pytest.fixture
def modules_after_import():
    """The names in sys.modules of a fresh interpreter after it imports one module."""

    def run(module: str) -> set[str]:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        code = f"import sys, {module}; print(*sorted(sys.modules))"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        return set(out.stdout.split())

    return run
