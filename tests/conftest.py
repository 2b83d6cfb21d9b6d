"""Shared fixtures: system chains are expensive, so build them once per session."""
import pytest

from susypep import ChainResult, analyze, default_grid, get_preset


@pytest.fixture(scope="session")
def deuteron_chain() -> ChainResult:
    return analyze(get_preset("deuteron"), default_grid())


@pytest.fixture(scope="session")
def be11_chain() -> ChainResult:
    """Fitted parameters (be11 has no canonical pair); the fit is ``be11_chain.fit``."""
    return analyze(get_preset("be11"), default_grid())


@pytest.fixture(scope="session")
def alpha_chain() -> ChainResult:
    """First removal of the alpha-alpha chain; the physical state is n=2."""
    return analyze(get_preset("alpha"), default_grid())
