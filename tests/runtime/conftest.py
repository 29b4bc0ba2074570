"""Shared fixtures for the runtime identity tests: the runnable
builtins + custom Register registry, and one session with compiled
drift-stable conditions (compiling the catalog once is the expensive
part, so it is session-scoped)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "api"))
sys.path.insert(0,
                str(Path(__file__).resolve().parent.parent / "stability"))

from stability_fixture import make_runnable_register_registry  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.eval import Scope  # noqa: E402


@pytest.fixture(scope="module")
def runnable_registry():
    return make_runnable_register_registry()


@pytest.fixture(scope="session")
def stable_session():
    """A session whose registry carries compiled drift-stable
    conditions for every structure (builtins + Register); tests that
    re-register conditions restore them."""
    session = Session(registry=make_runnable_register_registry(),
                      scope=Scope(), cache=False)
    session.compile_stable()
    return session
