"""The analysis chain every command shares: parameters -> V1 -> SUSY removals -> states.

``analyze`` fixes the deep potential and its partner records; the bound
states, transfer strengths and phase curves are computed on first use, so
a caller pays only for the quantities it reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fitting import FitResult, SystemPreset, fit_parameters
from .grids import BoundState, ChannelConstants, RadialGrid
from .observables import (
    PhaseShiftCurve,
    TransferStrength,
    cross_section_ratio,
    phase_shift_curve,
    zero_range_strength,
)
from .potentials import SechSquared
from .solver import solve_bound_state
from .transform import SusyTransformRecord, iterate_removals


@dataclass(frozen=True)
class ChainResult:
    """Deep sech^2 potential of a preset and its partner records, V2/V3 per removal."""

    preset: SystemPreset
    grid: RadialGrid
    a_tilde: float
    beta: float
    fit: FitResult | None        # None when the preset's canonical pair was used
    potential: SechSquared
    records: tuple[SusyTransformRecord, ...]

    @property
    def channel(self) -> ChannelConstants:
        return self.preset.channel

    @property
    def rec2(self) -> SusyTransformRecord:
        return self.records[0]

    @property
    def rec3(self) -> SusyTransformRecord:
        return self.records[1]

    @property
    def ground(self) -> BoundState:
        """Removed (lowest) state of the deep potential."""
        return self.rec2.ground

    def _solve(self, potential, nodes: int) -> BoundState:
        return solve_bound_state(potential, self.channel, target_nodes=nodes, grid=self.grid)

    @cached_property
    def physical(self) -> BoundState:
        """Retained physical state of the deep potential."""
        return self._solve(self.potential, self.preset.physical_node_count)

    @cached_property
    def v2_state(self) -> BoundState:
        return self._solve(self.rec2.result, 0)

    @cached_property
    def v3_state(self) -> BoundState:
        return self._solve(self.rec3.result, 0)

    @cached_property
    def strengths(self) -> tuple[TransferStrength, TransferStrength, float]:
        """(deep D0, phase-equivalent D0, D0^2 deep/pep)."""
        deep = zero_range_strength(self.potential, self.physical)
        pep = zero_range_strength(self.rec3.result, self.v3_state)
        return deep, pep, cross_section_ratio(deep, pep)

    def curves(self, energies) -> dict[str, PhaseShiftCurve]:
        """Phase-shift curves of V1 and of the first removal's V2 and V3."""
        return {
            label: phase_shift_curve(pot, self.channel, energies, grid=self.grid)
            for label, pot in (
                ("V1", self.potential), ("V2", self.rec2.result), ("V3", self.rec3.result)
            )
        }


def analyze(preset: SystemPreset, grid: RadialGrid, removals: int = 1) -> ChainResult:
    """Canonical pair (or a fit when the preset has none), V1, then ``removals`` removals."""
    if preset.canonical_a_tilde is not None and preset.canonical_beta is not None:
        a_tilde, beta, fit = preset.canonical_a_tilde, preset.canonical_beta, None
    else:
        fit = fit_parameters(preset, grid=grid)
        a_tilde, beta = fit.a_tilde, fit.beta
    potential = SechSquared(a_tilde, beta, preset.channel.hbar2_over_2mu)
    records = iterate_removals(potential, preset.channel, removals, grid=grid)
    return ChainResult(preset, grid, a_tilde, beta, fit, potential, tuple(records))
