"""Shared fixtures: system chains are expensive, so build them once per session."""
import functools

import pytest

from susypep import ChainResult, RadialGrid, analyze, default_grid, get_preset


@pytest.fixture(scope="session")
def deuteron_chain() -> ChainResult:
    return analyze(get_preset("deuteron"), default_grid())


@pytest.fixture(scope="session")
def be11_chain() -> ChainResult:
    """Fitted parameters (be11 has no canonical pair); the fit is ``be11_chain.fit``."""
    return analyze(get_preset("be11"), default_grid())


@pytest.fixture(scope="session")
def alpha_chain() -> ChainResult:
    """First removal of the alpha-alpha chain; the physical state is n=2.

    ``v2_state`` and ``v3_state`` are V1's n=1 state intertwined through this
    first removal, the partners of the forbidden n=1 state, not of the
    physical one.
    """
    return analyze(get_preset("alpha"), default_grid())


@pytest.fixture(scope="session")
def halo_chain():
    """``halo_chain(name, step, r_max)``: the preset's chain on that grid, built once."""
    @functools.cache
    def build(name: str, step: float, r_max: float) -> ChainResult:
        return analyze(get_preset(name), RadialGrid.from_extent(step, r_max))
    return build
