"""Uniform radial grids, channel constants and grid quadrature.

All lengths are fm, energies MeV. Grids start one step away from the
origin: transformed potentials carry a c/r^2 singularity there, so r = 0
is never a mesh point; quadrature routines account for the [0, r_1]
sliver explicitly.
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

    This is the single quadrature convention of the package; normalization,
    radii and transfer strengths all use it so that exported numbers are
    mutually consistent.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_points,):
        raise DomainError(f"values shape {v.shape} does not match grid ({grid.n_points},)")
    h = grid.step
    core = h * (0.5 * (v[0] + v[-1]) + v[1:-1].sum())
    return core + 0.5 * h * v[0]   # [0, r_1] sliver with value 0 at the origin
