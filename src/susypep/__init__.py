"""Supersymmetric phase-equivalent partners of deep two-body potentials.

Construct the intermediate and phase-equivalent partners of a deep sech^2
(or tabulated) radial potential, solve for bound states and phase shifts,
and compare deep vs. shallow descriptions on radii and the zero-range
transfer strength.
"""
from ._kernels import BACKEND
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DomainError,
    NoSuchStateError,
    SusypepError,
)
from .fitting import (
    FitResult,
    SystemPreset,
    fit_parameters,
    get_preset,
    load_preset_config,
)
from .grids import (BoundState, ChannelConstants, RadialGrid, count_nodes, default_grid,
                    integrate, node_positions)
from .observables import (
    PhaseShiftCurve,
    TransferStrength,
    charge_radius,
    cross_section_ratio,
    matter_radius,
    mod_pi_distance,
    phase_shift,
    phase_shift_curve,
    rms_radius,
    zero_range_strength,
)
from .pipeline import ChainResult, analyze
from .potentials import (
    PotentialModel,
    SechSquared,
    Tabulated,
    a_tilde_from_energy,
    analytic_depth,
    analytic_levels,
    analytic_pt_state,
    level_count,
)
from .solver import count_bound_states, solve_at_energy, solve_bound_state
from .transform import (
    SusyTransformRecord,
    build_partners,
    build_pep_via_intermediate,
    iterate_removals,
    remove_lowest,
)

__version__ = "0.1.0"
