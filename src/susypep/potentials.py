"""Radial potential families and every sech^2 closed form.

Two families are supported:

* ``SechSquared`` -- the two-parameter deep well V(r) = -V0 sech^2(beta r)
  with V0 = (hbar^2/2mu) At (At + 1) beta^2.  Its half-line spectrum is
  known in closed form, E_n = -(hbar^2/2mu) (At - 2n - 1)^2 beta^2, which
  the numerical solver is tested against.
* ``Tabulated`` -- values on a :class:`RadialGrid` plus an explicit origin
  singularity coefficient c such that V(r) -> c (hbar^2/2mu) / r^2 for
  r -> 0.  The supersymmetric transforms produce these.

Both carry hbar2_over_2mu as a field, so the solver can check them against
the channel they are solved in. A ``Tabulated`` is read only on its own
grid (see ``values_on_grid``). Both carry ``levels``, the bound energies
they are known to have (closed form for ``SechSquared``; the source's
spectrum minus the removed level for a SUSY partner), where the solver
starts its eigenvalue search.

Every sech^2 closed form lives here: levels, depth, level count, a_tilde
from a level, and the eigenstates (Cooper, Khare & Sukhatme 1995).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NoSuchStateError
from .grids import BoundState, ChannelConstants, RadialGrid, default_grid, frozen


def sech(x):
    """Numerically safe sech, valid for large |x|."""
    ax = np.abs(x)
    return 2.0 * np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))


def _check_positive_r(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if not np.all((arr > 0.0) & (arr < math.inf)):   # also false for nan
        raise DomainError("potentials are defined for finite r > 0 only")
    return arr


@dataclass(frozen=True)
class SechSquared:
    """V(r) = -V0 sech^2(beta r), parametrized by the dimensionless strength."""

    a_tilde: float
    beta: float
    hbar2_over_2mu: float

    def __post_init__(self):
        if not 1.0 < self.a_tilde < math.inf:
            raise DomainError(
                f"a_tilde must be finite and exceed 1 (one bound odd state), got {self.a_tilde}")
        if not 0.0 < self.beta < math.inf:
            raise DomainError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 < self.hbar2_over_2mu < math.inf:
            raise DomainError(f"hbar2_over_2mu must be finite and > 0, got {self.hbar2_over_2mu}")

    @property
    def depth(self) -> float:
        """Well depth V0 in MeV (positive number)."""
        return self.hbar2_over_2mu * self.a_tilde * (self.a_tilde + 1.0) * self.beta**2

    @property
    def singular_coefficient(self) -> float:
        return 0.0

    @property
    def levels(self) -> tuple[float, ...]:
        """Closed-form bound energies E_n, MeV, for every level the well holds."""
        channel = ChannelConstants(self.hbar2_over_2mu)
        return tuple(analytic_levels(self.a_tilde, self.beta, channel, n)
                     for n in range(level_count(self.a_tilde)))

    def evaluate(self, r):
        arr = _check_positive_r(r)
        out = -self.depth * sech(self.beta * arr) ** 2
        return float(out) if np.isscalar(r) else out


@dataclass(frozen=True)
class Tabulated:
    """Potential sampled on a grid, with an explicit c/r^2 origin law.

    ``singular_coefficient`` is c in V(r) -> c (hbar^2/2mu) / r^2 for r -> 0;
    the solver starts its sweeps from the matching origin series.
    ``levels`` holds the bound energies the potential is known to have, MeV,
    lowest first (a SUSY partner keeps its source's spectrum minus the
    removed level); the solver starts its search there.
    """

    grid: RadialGrid
    values: np.ndarray
    singular_coefficient: float
    hbar2_over_2mu: float
    levels: tuple[float, ...] = ()

    def __post_init__(self):
        vals = frozen(self.values)
        if vals.shape != (self.grid.n_points,):
            raise DomainError(
                f"values shape {vals.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("tabulated potential values must be finite")
        object.__setattr__(self, "values", vals)
        if not 0.0 <= self.singular_coefficient < math.inf:
            raise DomainError(f"singular_coefficient must be finite and >= 0, got "
                              f"{self.singular_coefficient}")
        if not 0.0 < self.hbar2_over_2mu < math.inf:
            raise DomainError(f"hbar2_over_2mu must be finite and > 0, got {self.hbar2_over_2mu}")
        levels = tuple(float(e) for e in self.levels)
        if not all(math.isfinite(e) and e < above for e, above in zip(levels, levels[1:] + (0.0,))):
            raise DomainError(f"levels must be finite bound energies, lowest first, got {levels}")
        object.__setattr__(self, "levels", levels)


PotentialModel = Union[SechSquared, Tabulated]


def values_on_grid(potential: PotentialModel, grid: RadialGrid) -> np.ndarray:
    """Potential values on all grid points.

    A ``Tabulated`` is only taken on its own grid: linear interpolation onto
    another mesh would put an O(h^2) error into the O(h^4) Numerov solution.
    """
    if isinstance(potential, Tabulated):
        if potential.grid != grid:
            raise DomainError(
                f"tabulated potential lives on {potential.grid}, not on {grid}; "
                "solve it on its own grid"
            )
        return np.asarray(potential.values)
    return potential.evaluate(grid.r)


# --- closed-form sech^2 relations ------------------------------------------

def analytic_levels(a_tilde: float, beta: float, channel: ChannelConstants, n: int) -> float:
    """Half-line bound energy E_n = -c (At - 2n - 1)^2 beta^2, MeV.

    Only the odd full-line states survive the u(0) = 0 boundary condition,
    hence the 2n + 1 combination.
    """
    if n < 0:
        raise DomainError(f"state index must be >= 0, got {n}")
    if not (math.isfinite(a_tilde) and math.isfinite(beta)):
        raise DomainError(f"a_tilde and beta must be finite, got {a_tilde}, {beta}")
    kappa_factor = a_tilde - 2.0 * n - 1.0
    if kappa_factor <= 0.0:
        raise NoSuchStateError(
            f"no bound state n={n} for a_tilde={a_tilde} (needs a_tilde > {2 * n + 1})"
        )
    return -channel.hbar2_over_2mu * kappa_factor**2 * beta**2


def a_tilde_from_energy(energy: float, beta: float, channel: ChannelConstants, n: int) -> float:
    """Exact inversion of the level formula for the strength parameter."""
    if not -math.inf < energy < 0.0:
        raise DomainError(f"bound energy must be finite and < 0, got {energy}")
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be finite and > 0, got {beta}")
    if n < 0:
        raise DomainError(f"state index must be >= 0, got {n}")
    return 2.0 * n + 1.0 + math.sqrt(-energy / channel.hbar2_over_2mu) / beta


def analytic_depth(a_tilde: float, beta: float, channel: ChannelConstants) -> float:
    """Well depth V0 = c At (At + 1) beta^2, MeV (positive magnitude)."""
    if not (0.0 <= a_tilde < math.inf and 0.0 <= beta < math.inf):
        raise DomainError(f"a_tilde and beta must be finite and >= 0, got {a_tilde}, {beta}")
    return channel.hbar2_over_2mu * a_tilde * (a_tilde + 1.0) * beta**2


def level_count(a_tilde: float) -> int:
    """Number of half-line bound states: indices n with At - 2n - 1 > 0."""
    if not math.isfinite(a_tilde):
        raise DomainError(f"a_tilde must be finite, got {a_tilde}")
    if a_tilde <= 1.0:
        return 0
    # largest n with 2n + 1 < a_tilde
    n_max = math.ceil((a_tilde - 1.0) / 2.0) - 1
    if a_tilde - 2.0 * (n_max + 1) - 1.0 > 0.0:   # guard exact-threshold rounding
        n_max += 1
    return n_max + 1


def _gegenbauer(k: int, lam: float, x: np.ndarray) -> np.ndarray:
    """C_k^lam(x) from the three-term recurrence
    k C_k = 2 (k + lam - 1) x C_{k-1} - (k + 2 lam - 2) C_{k-2}."""
    prev, cur = np.zeros_like(x), np.ones_like(x)     # C_{-1} = 0, C_0 = 1
    for j in range(1, k + 1):
        prev, cur = cur, (2.0 * (j + lam - 1.0) * x * cur - (j + 2.0 * lam - 2.0) * prev) / j
    return cur


def analytic_pt_state(
    a_tilde: float,
    beta: float,
    channel: ChannelConstants,
    n: int,
    grid: RadialGrid | None = None,
) -> BoundState:
    """Closed-form sech^2 eigenstate for any bound level n, normalized on the grid.

    With s = a_tilde and nu = 2n + 1 (the odd full-line states vanish at the
    origin),

        u_n ∝ sech^(s - nu)(beta r) C_nu^(s - nu + 1/2)(tanh beta r),

    C the Gegenbauer polynomial (Cooper, Khare & Sukhatme, Phys. Rep. 251,
    267 (1995)). Raises NoSuchStateError for a level the well does not hold,
    and DomainError when the profile under/overflows to zero or non-finite
    values (strengths far beyond any nucleus).
    """
    energy = analytic_levels(a_tilde, beta, channel, n)   # raises if absent
    g = grid if grid is not None else default_grid()
    x = beta * g.r
    power = a_tilde - 2.0 * n - 1.0
    with np.errstate(over="ignore", invalid="ignore"):   # BoundState.from_profile rejects it
        u = sech(x) ** power * _gegenbauer(2 * n + 1, power + 0.5, np.tanh(x))
    return BoundState.from_profile(u, energy, channel.hbar2_over_2mu, g)
