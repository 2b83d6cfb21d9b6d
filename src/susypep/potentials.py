"""Radial potential families and the sech^2 closed-form spectrum.

Three families are supported:

* ``SechSquared`` -- the two-parameter deep well V(r) = -V0 sech^2(beta r)
  with V0 = (hbar^2/2mu) At (At + 1) beta^2.  Its half-line spectrum is
  known in closed form, E_n = -(hbar^2/2mu) (At - 2n - 1)^2 beta^2, which
  the numerical solver is tested against.
* ``Gaussian`` -- a simple analytic well, used for demos and cross-checks.
* ``Tabulated`` -- values on a :class:`RadialGrid` plus an explicit origin
  singularity coefficient c such that V(r) -> c (hbar^2/2mu) / r^2 for
  r -> 0.  The supersymmetric transforms produce these.

Potentials that are only meaningful together with a channel constant
(SechSquared depth, the Tabulated origin law) carry hbar2_over_2mu as a
field so that ``evaluate`` needs no extra context.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NoSuchStateError
from .grids import ChannelConstants, RadialGrid

log = logging.getLogger(__name__)


def sech(x):
    """Numerically safe sech, valid for large |x|."""
    ax = np.abs(x)
    return 2.0 * np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))


def _check_positive_r(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("potentials are defined for r > 0 only")
    return arr


@dataclass(frozen=True)
class SechSquared:
    """V(r) = -V0 sech^2(beta r), parametrized by the dimensionless strength."""

    a_tilde: float
    beta: float
    hbar2_over_2mu: float

    def __post_init__(self):
        if not self.a_tilde > 1.0:
            raise DomainError(f"a_tilde must exceed 1 (one bound odd state), got {self.a_tilde}")
        if not self.beta > 0.0:
            raise DomainError(f"beta must be > 0, got {self.beta}")
        if not self.hbar2_over_2mu > 0.0:
            raise DomainError("hbar2_over_2mu must be > 0")

    @property
    def depth(self) -> float:
        """Well depth V0 in MeV (positive number)."""
        return self.hbar2_over_2mu * self.a_tilde * (self.a_tilde + 1.0) * self.beta**2

    @property
    def singular_coefficient(self) -> float:
        return 0.0

    def evaluate(self, r):
        arr = _check_positive_r(r)
        out = -self.depth * sech(self.beta * arr) ** 2
        return float(out) if np.isscalar(r) else out


@dataclass(frozen=True)
class Gaussian:
    """V(r) = -U0 exp(-alpha r^2); demo family."""

    depth: float            # U0, MeV
    alpha: float            # fm^-2
    hbar2_over_2mu: float | None = None

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")

    @property
    def singular_coefficient(self) -> float:
        return 0.0

    def evaluate(self, r):
        arr = _check_positive_r(r)
        out = -self.depth * np.exp(-self.alpha * arr**2)
        return float(out) if np.isscalar(r) else out


@dataclass(frozen=True)
class Tabulated:
    """Potential sampled on a grid, with an explicit c/r^2 origin law.

    Between mesh points the value is linearly interpolated. Below r_min the
    singular law c*(hbar^2/2mu)/r^2 plus the constant smooth remainder at
    r_min is used; beyond r_max the potential is taken as vanished (with a
    logged warning).
    """

    grid: RadialGrid
    values: np.ndarray
    singular_coefficient: float
    hbar2_over_2mu: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise DomainError(
                f"values shape {vals.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("tabulated potential values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.singular_coefficient < 0.0:
            raise DomainError("singular_coefficient must be >= 0")

    def evaluate(self, r):
        arr = _check_positive_r(r)
        scalar = np.isscalar(r)
        arr = np.atleast_1d(arr)
        out = np.interp(arr, self.grid.r, self.values)
        below = arr < self.grid.r_min
        if np.any(below):
            ck = self.singular_coefficient * self.hbar2_over_2mu
            remainder = self.values[0] - ck / self.grid.r_min**2
            out[below] = ck / arr[below] ** 2 + remainder
        beyond = arr > self.grid.r_max
        if np.any(beyond):
            log.warning(
                "evaluating tabulated potential beyond r_max=%.3f fm; extrapolating as 0",
                self.grid.r_max,
            )
            out[beyond] = 0.0
        return float(out[0]) if scalar else out


PotentialModel = Union[SechSquared, Gaussian, Tabulated]


def evaluate(potential: PotentialModel, r):
    """Evaluate any potential variant at r (scalar or array), in MeV."""
    return potential.evaluate(r)


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
    kappa_factor = a_tilde - 2.0 * n - 1.0
    if kappa_factor <= 0.0:
        raise NoSuchStateError(
            f"no bound state n={n} for a_tilde={a_tilde} (needs a_tilde > {2 * n + 1})"
        )
    return -channel.hbar2_over_2mu * kappa_factor**2 * beta**2


def analytic_depth(a_tilde: float, beta: float, channel: ChannelConstants) -> float:
    """Well depth V0 = c At (At + 1) beta^2, MeV (positive magnitude)."""
    if a_tilde < 0.0 or beta < 0.0:
        raise DomainError("a_tilde and beta must be >= 0")
    return channel.hbar2_over_2mu * a_tilde * (a_tilde + 1.0) * beta**2


def level_count(a_tilde: float) -> int:
    """Number of half-line bound states: indices n with At - 2n - 1 > 0."""
    if a_tilde <= 1.0:
        return 0
    # largest n with 2n + 1 < a_tilde
    n_max = math.ceil((a_tilde - 1.0) / 2.0) - 1
    if a_tilde - 2.0 * (n_max + 1) - 1.0 > 0.0:   # guard exact-threshold rounding
        n_max += 1
    return n_max + 1


# --- superpotential algebra --------------------------------------------------

@dataclass(frozen=True)
class SuperpotentialPair:
    """W(r) = A tanh(beta r) and its two partner potentials.

    ``a_strength`` is A in MeV^(1/2); the natural step of the shape-invariance
    ladder is b = beta * sqrt(hbar^2/2mu).
    """

    a_strength: float
    beta: float
    hbar2_over_2mu: float

    def __post_init__(self):
        if not self.a_strength > 0.0:
            raise DomainError(f"A must be > 0, got {self.a_strength}")

    @property
    def b_step(self) -> float:
        return self.beta * math.sqrt(self.hbar2_over_2mu)

    def w(self, r):
        return self.a_strength * np.tanh(self.beta * np.asarray(r, dtype=float))

    def v1(self, r):
        a, b = self.a_strength, self.b_step
        return a * a - a * (a + b) * sech(self.beta * np.asarray(r, dtype=float)) ** 2

    def v2(self, r):
        a, b = self.a_strength, self.b_step
        return a * a - a * (a - b) * sech(self.beta * np.asarray(r, dtype=float)) ** 2


def depth_from_a(a_strength: float, beta: float, channel: ChannelConstants) -> float:
    """V0 = A (A + b) with b = beta sqrt(c)."""
    b = beta * math.sqrt(channel.hbar2_over_2mu)
    return a_strength * (a_strength + b)


def a_from_depth(depth: float, beta: float, channel: ChannelConstants) -> float:
    """Positive root A of A(A + b) = V0: A = (-b + sqrt(b^2 + 4 V0)) / 2."""
    if depth < 0.0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    b = beta * math.sqrt(channel.hbar2_over_2mu)
    return 0.5 * (-b + math.sqrt(b * b + 4.0 * depth))


def shape_invariance_residual(
    a_strength: float, beta: float, channel: ChannelConstants, r
) -> float:
    """Pointwise residual of the shape-invariance identity, MeV.

    V2(r; A) - V1(r; A - b) - [A^2 - (A - b)^2] vanishes identically for the
    tanh superpotential; the return value is the rounding-level remainder.
    """
    b = beta * math.sqrt(channel.hbar2_over_2mu)
    if a_strength <= b:
        raise DomainError(f"A={a_strength} must exceed the ladder step b={b}")
    pair = SuperpotentialPair(a_strength, beta, channel.hbar2_over_2mu)
    shifted = SuperpotentialPair(a_strength - b, beta, channel.hbar2_over_2mu)
    remainder = a_strength**2 - (a_strength - b) ** 2
    out = pair.v2(r) - shifted.v1(r) - remainder
    return float(out) if np.isscalar(r) else out
