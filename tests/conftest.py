"""Shared fixtures."""
import pytest

import mfzeta.regularity


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
