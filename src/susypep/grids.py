"""Uniform radial grids, channel constants, grid quadrature and bound states.

All lengths are fm, energies MeV. Grids start one step away from the
origin: transformed potentials carry a c/r^2 singularity there, so r = 0
is never a mesh point; quadrature routines account for the [0, r_1]
sliver explicitly.

``BoundState`` is the normalized eigenstate that the solver and the sech^2
closed form both return, finished by ``BoundState.from_profile``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

DEFAULT_STEP = 0.01     # fm
DEFAULT_R_MAX = 35.0    # fm
MAX_GRID_POINTS = 1_000_000   # largest mesh accepted, checked before anything is allocated


def frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``, for the arrays of immutable results."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RadialGrid:
    """Uniform mesh r_k = k*step for k = 1..n_points."""

    step: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise DomainError(f"grid step must be finite and > 0, got {self.step}")
        n = self.n_points
        if not isinstance(n, numbers.Integral) or not 100 <= n <= MAX_GRID_POINTS:
            raise DomainError(f"need at least 100 grid points and at most {MAX_GRID_POINTS:,}, "
                              f"a whole number, got {n}")

    @classmethod
    def from_extent(cls, step: float = DEFAULT_STEP, r_max: float = DEFAULT_R_MAX) -> "RadialGrid":
        if not (0.0 < step < math.inf and 0.0 < r_max < math.inf):
            raise DomainError(f"grid step and extent must be finite and > 0, got {step}, {r_max}")
        count = r_max / step   # checked before rounding: an infinite count has no integer
        if count > MAX_GRID_POINTS + 0.5:
            raise DomainError(f"{r_max} fm in steps of {step} fm holds more than "
                              f"{MAX_GRID_POINTS:,} grid points")
        return cls(step=step, n_points=int(round(count)))

    @property
    def r_min(self) -> float:
        return self.step

    @property
    def r_max(self) -> float:
        return self.n_points * self.step

    @cached_property
    def r(self) -> np.ndarray:
        """Grid points as an immutable array."""
        return frozen(self.step * np.arange(1, self.n_points + 1, dtype=float))

    def index_of(self, radius: float) -> int:
        """Index of the grid point closest to `radius`."""
        ratio = radius / self.step   # finite radii far beyond the grid overflow to inf here
        k = int(round(ratio)) - 1 if math.isfinite(ratio) else -1
        if not 0 <= k < self.n_points:
            raise DomainError(f"radius {radius} fm outside grid (r_max={self.r_max} fm)")
        return k


def default_grid() -> RadialGrid:
    return RadialGrid.from_extent(DEFAULT_STEP, DEFAULT_R_MAX)


def check_index(n, what: str) -> None:
    """Raise DomainError unless ``n`` is a whole number >= 0 (numpy integers count)."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"{what} must be a whole number >= 0, got {n!r}")


@dataclass(frozen=True)
class ChannelConstants:
    """Kinematic constant hbar^2/(2 mu) of a two-body channel, MeV fm^2."""

    hbar2_over_2mu: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.hbar2_over_2mu < math.inf:
            raise DomainError(f"hbar2_over_2mu must be finite and > 0, got {self.hbar2_over_2mu}")


def integrate(values: np.ndarray, grid: RadialGrid) -> float:
    """Trapezoidal integral over [0, r_max], with the integrand taken as 0 at r=0.

    Normalization, radii and transfer strengths all use it, so that exported
    numbers are mutually consistent. The one other quadrature is the
    cumulative integral of the SUSY transforms (I and J in ``transform``), an
    Euler-Maclaurin-corrected cumulative trapezoid.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_points,):
        raise DomainError(f"values shape {v.shape} does not match grid ({grid.n_points},)")
    h = grid.step
    core = h * (0.5 * (v[0] + v[-1]) + v[1:-1].sum())
    return core + 0.5 * h * v[0]   # [0, r_1] sliver with value 0 at the origin


@dataclass(frozen=True)
class BoundState:
    """Normalized eigensolution on a radial grid.

    ``u`` carries dimension fm^(-1/2); the sign convention is a positive
    tail (asymptotic amplitude > 0). ``kappa`` is the asymptotic decay
    constant sqrt(-E 2mu / hbar^2).
    """

    energy: float
    nodes: int
    u: np.ndarray
    kappa: float
    grid: RadialGrid
    norm_residual: float = 0.0

    def __post_init__(self):
        if not -math.inf < self.energy < 0.0:
            raise DomainError(f"bound-state energy must be finite and negative, got {self.energy}")
        object.__setattr__(self, "u", frozen(self.u))

    @classmethod
    def from_profile(cls, u: np.ndarray, energy: float, c: float, grid: RadialGrid) -> "BoundState":
        """The BoundState of profile ``u`` at ``energy``: normalized, with a positive tail.

        The tail sign is that of the last point where |u| exceeds 1e-3 of its
        maximum; kappa is sqrt(-E / c) and the norm residual |int u^2 - 1|.
        Raises DomainError for a profile that is not finite or has zero norm.
        """
        norm = integrate(u * u, grid)
        if not 0.0 < norm < math.inf:   # also false for nan
            raise DomainError(f"bound-state profile has norm {norm}; it must be finite and > 0")
        u = u / math.sqrt(norm)
        appreciable = u[np.abs(u) > 1e-3 * np.max(np.abs(u))]
        if appreciable.size and appreciable[-1] < 0.0:
            u = -u
        return cls(energy=energy, nodes=count_nodes(u), u=u, kappa=math.sqrt(-energy / c),
                   grid=grid, norm_residual=abs(integrate(u * u, grid) - 1.0))


def _sign_changes(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the nonzero entries, and where the sign bit flips between neighbouring ones.

    Comparing sign bits rather than the sign of u_i u_j cannot overflow or
    underflow, so no crossing is lost at extreme amplitudes.
    """
    nonzero = arr != 0.0
    negative = np.signbit(arr[nonzero])
    return nonzero, negative[1:] != negative[:-1]


def count_nodes(u) -> int:
    """Strict sign changes over the array (exact zeros are skipped)."""
    return int(np.count_nonzero(_sign_changes(np.asarray(u, dtype=float))[1]))


def node_positions(u, grid: RadialGrid) -> np.ndarray:
    """Radii of interior zero crossings, linearly interpolated."""
    arr = np.asarray(u, dtype=float)
    nonzero, flips = _sign_changes(arr)
    idx = np.flatnonzero(nonzero)
    i, j = idx[:-1][flips], idx[1:][flips]
    return grid.r[i] - arr[i] * (grid.step * (j - i)) / (arr[j] - arr[i])
