"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def _no_caller_seed(monkeypatch):
    """Run each test without the caller's ``FOCUS_SEED``; a test that needs it sets it."""
    monkeypatch.delenv("FOCUS_SEED", raising=False)
