"""Determine (a_tilde, beta) from a target binding energy and rms radius.

The closed-form spectrum makes the fit one-dimensional: for any beta the
strength follows from the energy target exactly,

    a_tilde(beta) = 2n + 1 + sqrt(-E 2mu/hbar^2) / beta,

so only the rms condition is searched, by Brent's method on beta. The rms
of each candidate comes from the closed-form sech^2 eigenstate of level n,
so a fit runs no Numerov sweep, costs milliseconds, and its energy
residual is rounding-level.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

from .errors import BracketError, ConfigError, ConvergenceError, DomainError
from .grids import BoundState, ChannelConstants, RadialGrid, default_grid
from .observables import _radius, rms_radius
from .potentials import a_tilde_from_energy, analytic_levels, analytic_pt_state
# Unused here since fits run no sweeps; perfbench's tracer test still expects
# every namespace it wraps, this one included, to hold the name.
from .solver import solve_bound_state  # noqa: F401

log = logging.getLogger(__name__)

DEFAULT_BETA_BRACKET = (0.2, 5.0)   # fm^-1
BETA_TOL = 1e-8                     # fm^-1, root bracket width at termination
MAX_FIT_ITERATIONS = 200
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class SystemPreset:
    """A two-body system: channel constant, fit targets and bookkeeping.

    ``canonical_a_tilde/beta`` hold the established parameter pair used for
    observable tables (the fit serves to reproduce or replace them). A
    preset without ``target_rms`` has prescribed parameters and is not
    fitted. ``reference_pair`` records a quoted parameter pair that fails
    the defining constraints, so reports can flag the inconsistency.
    """

    name: str
    channel: ChannelConstants
    target_energy: float
    target_rms: float | None
    physical_node_count: int
    coordinate_factor: str
    canonical_a_tilde: float | None = None
    canonical_beta: float | None = None
    r_proton: float | None = None
    core_mass_number: int | None = None
    r_core: float | None = None
    reference_pair: tuple[float, float] | None = None

    def __post_init__(self):
        if not -math.inf < self.target_energy < 0.0:
            raise DomainError(f"target energy must be finite and < 0, got {self.target_energy}")
        if self.target_rms is not None and not 0.0 < self.target_rms < math.inf:
            raise DomainError(f"target rms must be finite and > 0, got {self.target_rms}")
        if self.physical_node_count < 0:
            raise DomainError(f"node count must be >= 0, got {self.physical_node_count}")
        if self.coordinate_factor not in ("quarter", "unit"):
            raise DomainError("coordinate_factor must be 'quarter' or 'unit'")


# the alpha-alpha pair is prescribed; its n = 2 level is the energy target
_ALPHA_CHANNEL = ChannelConstants(10.375, "alpha-alpha")
_ALPHA_A_TILDE, _ALPHA_BETA = 5.945, 0.535

PRESETS = {
    "deuteron": SystemPreset(
        name="deuteron",
        channel=ChannelConstants(41.47, "n-p"),
        target_energy=-2.226,
        target_rms=1.95,
        physical_node_count=1,
        coordinate_factor="quarter",
        canonical_a_tilde=3.146,
        canonical_beta=1.587,
        r_proton=0.88,
    ),
    "be11": SystemPreset(
        name="be11",
        channel=ChannelConstants(22.81, "n-Be10"),
        target_energy=-0.503,
        target_rms=6.70,
        physical_node_count=1,
        coordinate_factor="unit",
        core_mass_number=10,
        r_core=2.3,
        reference_pair=(3.124, 0.694),
    ),
    "alpha": SystemPreset(
        name="alpha",
        channel=_ALPHA_CHANNEL,
        target_energy=analytic_levels(_ALPHA_A_TILDE, _ALPHA_BETA, _ALPHA_CHANNEL, 2),
        target_rms=None,
        physical_node_count=2,
        coordinate_factor="unit",
        canonical_a_tilde=_ALPHA_A_TILDE,
        canonical_beta=_ALPHA_BETA,
    ),
}


def get_preset(name: str) -> SystemPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


@dataclass(frozen=True)
class FitResult:
    a_tilde: float
    beta: float
    achieved_energy: float
    achieved_rms: float
    energy_residual: float
    rms_residual: float
    iterations: int


def _brent_root(func, previous, best, contra, iterations: int) -> tuple[float, int]:
    """Root of ``func`` between the (x, func(x)) points ``best`` and ``contra``.

    Brent's method (Comput. J. 14, 422 (1971)): inverse quadratic or secant
    steps through ``previous``, ``best`` and ``contra``, with a bisection
    step whenever interpolation would not shrink the bracket fast enough.
    Returns the best iterate once the bracket is narrower than BETA_TOL,
    and the evaluation count ``iterations`` raised by the ones made here.
    """
    (a, fa), (b, fb), (c, fc) = previous, best, contra
    step = prev_step = c - b
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * BETA_TOL
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b, iterations
        if iterations >= MAX_FIT_ITERATIONS:
            raise ConvergenceError(
                f"fit exceeded {MAX_FIT_ITERATIONS} iterations (bracket {min(b, c)}, {max(b, c)})"
            )
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:                                  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:                                       # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        iterations += 1
        fb = func(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a


def fit_parameters(
    preset: SystemPreset,
    grid: RadialGrid | None = None,
) -> FitResult:
    """Solve rms(beta) = target by Brent's method, with a_tilde(beta) in closed form.

    A three-point probe first checks that rms falls strictly with beta over
    the bracket and that the bracket straddles the target. The search stops
    when the root is bracketed to BETA_TOL; ``iterations`` counts the rms
    evaluations, probes included.
    """
    if preset.target_rms is None:
        raise ConfigError(f"preset {preset.name!r} has fixed parameters; use 'spectrum' instead")
    g = grid if grid is not None else default_grid()
    channel = preset.channel
    n = preset.physical_node_count
    target_e = preset.target_energy
    target_r = preset.target_rms

    lo, hi = DEFAULT_BETA_BRACKET

    def state_at(beta: float) -> BoundState:
        try:
            a_tilde = a_tilde_from_energy(target_e, beta, channel, n)
            return analytic_pt_state(a_tilde, beta, channel, n, grid=g)
        except DomainError as exc:
            raise ConvergenceError(f"state disappeared at beta={beta}: {exc}") from exc

    def rms_at(beta: float) -> float:
        # trial states skip the grid-edge tail check; the fitted state gets it
        return _radius(state_at(beta), preset.coordinate_factor)

    iterations = 3
    mid = 0.5 * (lo + hi)
    rms_lo, rms_mid, rms_hi = rms_at(lo), rms_at(mid), rms_at(hi)
    log.info(
        "fit monotonicity probe: rms(%.3g)=%.4f rms(%.3g)=%.4f rms(%.3g)=%.4f",
        lo, rms_lo, mid, rms_mid, hi, rms_hi,
    )
    if not rms_lo > rms_mid > rms_hi:
        raise ConvergenceError(
            "rms is not strictly decreasing with beta over the bracket "
            f"({rms_lo:.4f}, {rms_mid:.4f}, {rms_hi:.4f}); aborting rather than "
            "picking a branch"
        )
    if not rms_hi < target_r < rms_lo:
        raise BracketError(
            f"beta bracket does not straddle the rms target {target_r} fm: "
            f"rms({lo})={rms_lo:.4f}, rms({hi})={rms_hi:.4f}"
        )

    # the probe's midpoint halves the bracket; its outer point seeds the search
    lo_point, hi_point = (lo, rms_lo - target_r), (hi, rms_hi - target_r)
    outer, far = (lo_point, hi_point) if rms_mid > target_r else (hi_point, lo_point)
    beta, iterations = _brent_root(
        lambda b: rms_at(b) - target_r, outer, (mid, rms_mid - target_r), far, iterations
    )
    achieved_r = rms_radius(state_at(beta), preset.coordinate_factor)   # may warn (halo tails)
    a_tilde = a_tilde_from_energy(target_e, beta, channel, n)
    achieved_e = analytic_levels(a_tilde, beta, channel, n)
    result = FitResult(
        a_tilde=a_tilde,
        beta=beta,
        achieved_energy=achieved_e,
        achieved_rms=achieved_r,
        energy_residual=achieved_e - target_e,
        rms_residual=achieved_r - target_r,
        iterations=iterations,
    )
    if abs(result.rms_residual) > 1e-4:
        raise ConvergenceError(
            f"fit finished with rms residual {result.rms_residual:.2e} fm > 1e-4 fm"
        )
    return result


def load_preset_config(path) -> SystemPreset:
    """Read a plain key=value preset file ('#' starts a comment).

    Each of the keys name, hbar2_over_2mu, target_energy, target_rms, nodes
    and coordinate_factor is required once; any other key is an error. The
    name goes into output file names: it must be non-empty, without / or \\.
    """
    required = ("name", "hbar2_over_2mu", "target_energy", "target_rms", "nodes",
                "coordinate_factor")
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
                key, value = (part.strip() for part in body.split("=", 1))
                if key not in required:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in entries:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
                if key == "name" and (not value or "/" in value or "\\" in value):
                    raise ConfigError(f"{path}:{lineno}: name must be non-empty and hold "
                                      f"no '/' or '\\' (it names output files), got {value!r}")
                entries[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    missing = [key for key in required if key not in entries]
    if missing:
        raise ConfigError(f"config {path} is missing keys: {', '.join(missing)}")
    try:
        return SystemPreset(
            name=entries["name"],
            channel=ChannelConstants(float(entries["hbar2_over_2mu"]), entries["name"]),
            target_energy=float(entries["target_energy"]),
            target_rms=float(entries["target_rms"]),
            physical_node_count=int(entries["nodes"]),
            coordinate_factor=entries["coordinate_factor"],
        )
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"config {path} is invalid: {exc}") from exc
