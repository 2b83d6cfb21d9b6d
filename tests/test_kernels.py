"""Backend parity and correctness of the raw Numerov sweeps."""
import math

import numpy as np
import pytest

from susypep import _kernels
from susypep._kernels import BACKEND, _numerov_py

try:
    from susypep._kernels import _numerov_cy
except ImportError:
    _numerov_cy = None

needs_compiled = pytest.mark.skipif(
    _numerov_cy is None, reason="compiled kernel not available"
)


def _free_particle_f(k, n, h):
    # u'' = -k^2 u  ->  f = -k^2
    return np.full(n, -k * k), h


def test_outward_sweep_reproduces_sine():
    k, h, n = 1.3, 0.001, 5000
    f, h = _free_particle_f(k, n, h)
    r = h * np.arange(1, n + 1)
    u0, u1 = math.sin(k * r[0]), math.sin(k * r[1])
    u, log_scale = _numerov_py.sweep_outward(f, h, u0, u1, n - 1)
    assert log_scale == 0.0
    assert np.max(np.abs(u - np.sin(k * r))) < 1e-9


def test_inward_sweep_reproduces_decaying_exponential():
    kappa, h, n = 0.8, 0.001, 4000
    f = np.full(n, kappa * kappa)
    r = h * np.arange(1, n + 1)
    u, log_scale = _numerov_py.sweep_inward(
        f, h, math.exp(-kappa * r[-1]), math.exp(-kappa * r[-2]), 0
    )
    assert log_scale == 0.0
    assert np.max(np.abs(u / np.exp(-kappa * r) - 1.0)) < 1e-8


def test_outward_rescales_instead_of_overflowing():
    # strongly classically forbidden: u grows like exp(30 r); over 120 units
    # of r the bare solution would reach ~1e1560
    h, n = 0.01, 12000
    f = np.full(n, 900.0)
    u, log_scale = _numerov_py.sweep_outward(f, h, 1.0, math.exp(30.0 * h), n - 1)
    assert log_scale > 0.0
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u)) <= 1e250


@needs_compiled
def test_backends_agree_exactly():
    rng = np.random.default_rng(7)
    n, h = 3000, 0.01
    f = rng.normal(scale=5.0, size=n)
    u_py, s_py = _numerov_py.sweep_outward(f, h, 0.01, 0.021, n - 1)
    u_cy, s_cy = _numerov_cy.sweep_outward(f, h, 0.01, 0.021, n - 1)
    assert s_py == s_cy
    np.testing.assert_allclose(u_cy, u_py, rtol=1e-13, atol=0.0)

    u_py, s_py = _numerov_py.sweep_inward(f, h, 1.0, 1.01, 5)
    u_cy, s_cy = _numerov_cy.sweep_inward(f, h, 1.0, 1.01, 5)
    assert s_py == s_cy
    np.testing.assert_allclose(u_cy, u_py, rtol=1e-13, atol=0.0)


@needs_compiled
def test_backends_agree_on_rescaled_sweep():
    h, n = 0.01, 12000
    f = np.full(n, 900.0)
    u_py, s_py = _numerov_py.sweep_outward(f, h, 1.0, math.exp(30.0 * h), n - 1)
    u_cy, s_cy = _numerov_cy.sweep_outward(f, h, 1.0, math.exp(30.0 * h), n - 1)
    assert s_py == pytest.approx(s_cy, rel=1e-15)
    np.testing.assert_allclose(u_cy, u_py, rtol=1e-12, atol=1e-300)


def test_backend_name_is_reported():
    assert BACKEND in ("cython", "python")


def test_batched_outward_sweep_equals_scalar_sweeps():
    # a well, a barrier that forces one rescale at some energies, and a free tail
    h, n, c, mid = 0.01, 2500, 41.47, 2200
    r = h * np.arange(1, n + 1)
    v = np.where(r < 2.0, -60.0, 0.0) + np.where((r > 3.0) & (r < 16.0), 1e5, 0.0)
    energies = np.array([0.3, 1.0, 4.0, 12.5, 2e5])
    u0, u1 = r[0] * np.ones(5), r[1] * np.linspace(1.0, 1.1, 5)
    rows, log_scale = _numerov_py.sweep_outward_batch(v, energies, c, h, u0, u1, mid)
    assert log_scale[0] > 0.0 and log_scale[-1] == 0.0
    for j, energy in enumerate(energies):
        u, scale = _numerov_py.sweep_outward((v - energy) / c, h, u0[j], u1[j], mid + 1)
        assert np.array_equal(rows[:, j], u[mid - 1:mid + 2])
        assert scale == log_scale[j]
        if BACKEND == "python":
            # given one energy, the package-level entry runs the scalar sweep
            one, one_scale = _kernels.sweep_outward_batch(
                v, energies[j:j + 1], c, h, u0[j:j + 1], u1[j:j + 1], mid
            )
            assert np.array_equal(one[:, 0], rows[:, j]) and one_scale[0] == scale


_B = _numerov_py._BLOCK


@pytest.mark.parametrize("mid", [1, 2, _B - 1, _B, _B + 1, 2 * _B + 2])
def test_batched_outward_sweep_block_edges(mid):
    h, c = 0.05, 1.0
    v = np.linspace(-3.0, 5.0, 2 * _B + 8)
    energies = np.array([0.5, 2.0])
    rows, _ = _numerov_py.sweep_outward_batch(v, energies, c, h, [0.1, 0.1], [0.2, 0.3], mid)
    for j, energy in enumerate(energies):
        u, _ = _numerov_py.sweep_outward((v - energy) / c, h, 0.1, (0.2, 0.3)[j], mid + 1)
        assert np.array_equal(rows[:, j], u[mid - 1:mid + 2])
