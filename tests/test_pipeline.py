"""The shared analysis chain: lazy states equal direct solves or intertwined ones, and
commands solve only what they use."""
import numpy as np
import pytest

import susypep.cli
import susypep.pipeline
import susypep.transform
from susypep import solve_bound_state


@pytest.mark.parametrize("chain_name", ["deuteron_chain", "be11_chain", "alpha_chain"])
def test_chain_states_equal_direct_solves(request, chain_name):
    chain = request.getfixturevalue(chain_name)
    for state, potential, nodes in (
        (chain.ground, chain.potential, 0),
        (chain.physical, chain.potential, chain.preset.physical_node_count),
    ):
        direct = solve_bound_state(potential, chain.channel, target_nodes=nodes, grid=chain.grid)
        assert state.energy == direct.energy
        assert np.array_equal(state.u, direct.u)


@pytest.mark.parametrize("name", ["deuteron", "be11", "alpha"])
def test_partner_states_are_nodeless_on_every_halo_grid(name, halo_chain):
    # phi3 ~ r^(p+2) is the difference of two O(r^p) terms near the origin: without
    # the origin law its first points can change sign and add a node
    for step in (0.01, 0.005):
        for r_max in (35.0, 60.0, 100.0):
            chain = halo_chain(name, step, r_max)
            assert (chain.v2_state.nodes, chain.v3_state.nodes) == (0, 0), (step, r_max)


def _count_calls(monkeypatch, name, modules):
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("argv, solves", [
    (["phase"], 1),
    (["transfer-ratio"], 2),
    (["report"], 2),
    (["partner", "--removals", "2"], 2),
])
def test_each_command_solves_only_the_states_it_reads(monkeypatch, argv, solves):
    calls = _count_calls(monkeypatch, "solve_bound_state",
                         [susypep.pipeline, susypep.transform, susypep.cli])
    assert susypep.cli.main(argv + ["--preset", "deuteron"]) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("fmt, curves", [("json", 0), ("csv", 3), ("both", 3)])
def test_report_computes_phase_curves_only_when_it_writes_them(monkeypatch, tmp_path, fmt, curves):
    calls = _count_calls(monkeypatch, "phase_shift_curve", [susypep.pipeline])
    argv = ["report", "--preset", "deuteron", "--emin", "1", "--emax", "5", "--estep", "1",
            "--format", fmt, "--out", str(tmp_path)]
    assert susypep.cli.main(argv) == 0
    assert len(calls) == curves
