"""Backend parity and correctness of the raw Numerov sweeps."""
import importlib.util
import math
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

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
_REPO = Path(__file__).resolve().parents[1]


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
    u, log_scale = _kernels.sweep_inward(
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


# (sweep, f, h, first seed value, second seed value, stop)
_RANDOM_F = np.random.default_rng(7).normal(scale=5.0, size=3000)
_PLAIN_SWEEPS = [
    ("sweep_outward", _RANDOM_F, 0.01, 0.01, 0.021, 2999),
    ("sweep_inward", _RANDOM_F, 0.01, 1.0, 1.01, 5),
]
# u grows like exp(30 r) in the direction of the sweep, so both rescale
_STIFF_F = np.full(12000, 900.0)
_RESCALED_SWEEPS = [
    ("sweep_outward", _STIFF_F, 0.01, 1.0, math.exp(0.3), 11999),
    ("sweep_inward", _STIFF_F, 0.01, 1.0, math.exp(0.3), 0),
]
# reversed and strided views of f, which the compiled kernel reads in place
_STRIDED_SWEEPS = [
    ("sweep_inward", _RANDOM_F[::-2], 0.01, 1.0, 1.01, 0),
    ("sweep_inward", _RANDOM_F[::3], 0.01, 1.0, 1.01, 7),
    ("sweep_inward", _STIFF_F[::-2], 0.01, 1.0, math.exp(0.3), 0),
]


def _sweep(impl, name, *args):
    """Sweep ``name`` on backend ``impl``; inward is its outward sweep reversed by ``_kernels``."""
    if name == "sweep_outward":
        return impl.sweep_outward(*args)
    return _kernels._reversed(impl.sweep_outward)(*args)


def _assert_bit_identical(impl, sweeps):
    """Each sweep of ``impl`` equals the fallback's bit for bit; returns the log scales."""
    scales = []
    for name, f, h, u_a, u_b, stop in sweeps:
        u_ref, s_ref = _sweep(_numerov_py, name, f, h, u_a, u_b, stop)
        u, s = _sweep(impl, name, f, h, u_a, u_b, stop)
        assert np.array_equal(u, u_ref) and s == s_ref, name
        scales.append(s)
    return scales


@needs_compiled
def test_backends_agree_exactly():
    _assert_bit_identical(_numerov_cy, _PLAIN_SWEEPS)


@needs_compiled
def test_backends_agree_on_rescaled_sweep():
    assert min(_assert_bit_identical(_numerov_cy, _RESCALED_SWEEPS)) > 0.0


@needs_compiled
def test_backends_agree_on_inward_sweeps_of_strided_f():
    assert not any(f.flags.contiguous for _, f, *_ in _STRIDED_SWEEPS)
    assert _assert_bit_identical(_numerov_cy, _STRIDED_SWEEPS)[-1] > 0.0


@pytest.mark.parametrize("backend", ["python", pytest.param("compiled", marks=needs_compiled)])
@pytest.mark.parametrize(
    "name, stop", [("sweep_outward", 0), ("sweep_outward", 12), ("sweep_inward", -1), ("sweep_inward", 11)]
)
def test_sweep_rejects_stop_outside_the_grid(backend, name, stop):
    impl = _numerov_py if backend == "python" else _numerov_cy
    with pytest.raises(ValueError, match="out of range"):
        _sweep(impl, name, np.zeros(12), 0.01, 1.0, 1.0, stop)


@pytest.mark.parametrize("backend", ["python", pytest.param("compiled", marks=needs_compiled)])
def test_nan_never_triggers_a_rescale(backend):
    impl = _numerov_py if backend == "python" else _numerov_cy
    f = np.zeros(12)
    f[5] = np.nan
    u, log_scale = impl.sweep_outward(f, 0.01, 1.0, 1.0, 11)
    assert log_scale == 0.0
    assert np.isfinite(u[:5]).all() and np.isnan(u[5:]).all()


def _reference_inward(f, h, u_last, u_second_last, stop):
    """The inward recurrence written out: u[i-1] from u[i] and u[i+1], rescaling the suffix."""
    n, t = len(f), h * h / 12.0
    u = [0.0] * (n - stop)
    u[-1], u[-2] = u_last, u_second_last
    log_scale = 0.0
    for i in range(n - 2, stop, -1):
        j = i - stop
        prv = ((2.0 + 10.0 * t * f[i]) * u[j]
               - (1.0 - t * f[i + 1]) * u[j + 1]) / (1.0 - t * f[i - 1])
        if prv > 1e250 or prv < -1e250:
            u[j:] = [x * 1e-250 for x in u[j:]]
            prv *= 1e-250
            log_scale += -math.log(1e-250)
        u[j - 1] = prv
    return np.array(u), log_scale


@pytest.mark.parametrize("backend", ["python", pytest.param("compiled", marks=needs_compiled)])
@pytest.mark.parametrize("f, stop", [
    (_RANDOM_F, 0), (_RANDOM_F, 5), (_RANDOM_F, 2998), (_STIFF_F, 0), (_STIFF_F, 11998),
])
def test_inward_sweep_is_the_reference_inward_recurrence(backend, f, stop):
    impl = _numerov_py if backend == "python" else _numerov_cy
    u_ref, s_ref = _reference_inward(f.tolist(), 0.01, 1.0, math.exp(0.3), stop)
    u, s = _sweep(impl, "sweep_inward", f, 0.01, 1.0, math.exp(0.3), stop)
    assert np.array_equal(u, u_ref) and s == s_ref
    assert (s > 0.0) == (f is _STIFF_F and stop == 0)


def test_extension_builds_from_setup_py(tmp_path):
    """A clean checkout compiles the C kernel, and the result matches the fallback."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) on PATH")
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp_path / "lib"),
         "--build-temp", str(tmp_path / "tmp")],
        cwd=_REPO, capture_output=True, text=True,
    )
    built = list((tmp_path / "lib" / "susypep" / "_kernels").glob("_numerov_cy*"))
    assert done.returncode == 0 and len(built) == 1, done.stdout + done.stderr
    spec = importlib.util.spec_from_file_location("_numerov_cy", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _assert_bit_identical(module, _PLAIN_SWEEPS + _RESCALED_SWEEPS + _STRIDED_SWEEPS)


def test_backend_name_is_reported():
    """The compiled kernel is used exactly when it imports; no environment variable changes that."""
    expected = "cython" if _numerov_cy is not None else "python"
    assert BACKEND == expected
    src = str(Path(_kernels.__file__).resolve().parents[2])
    env = dict(os.environ, SUSYPEP_PURE_PYTHON="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import susypep; print(susypep.BACKEND)"],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == expected


def _barrier_case():
    # a well, a barrier that forces one rescale at some energies, and a free tail
    h, n, c, mid = 0.01, 2500, 41.47, 2200
    r = h * np.arange(1, n + 1)
    v = np.where(r < 2.0, -60.0, 0.0) + np.where((r > 3.0) & (r < 16.0), 1e5, 0.0)
    energies = np.array([0.3, 1.0, 4.0, 12.5, 2e5])
    u0, u1 = r[0] * np.ones(5), r[1] * np.linspace(1.0, 1.1, 5)
    return v, energies, c, h, u0, u1, mid


def test_batched_outward_sweep_equals_scalar_sweeps(monkeypatch):
    v, energies, c, h, u0, u1, mid = _barrier_case()
    rows, log_scale = _numerov_py.sweep_outward_batch(v, energies, c, h, u0, u1, mid)
    assert log_scale[0] > 0.0 and log_scale[-1] == 0.0
    sweep, lengths = _kernels._impl.sweep_outward, []

    def spy(f, *args):
        lengths.append(len(f))
        return sweep(f, *args)

    for j, energy in enumerate(energies):
        u, scale = _numerov_py.sweep_outward((v - energy) / c, h, u0[j], u1[j], mid + 1)
        assert np.array_equal(rows[:, j], u[mid - 1:mid + 2])
        assert scale == log_scale[j]
        if BACKEND == "python":
            # given one energy, the package-level entry runs the scalar sweep,
            # on the points up to the stop index mid + 1 only
            with monkeypatch.context() as patch:
                patch.setattr(_kernels._impl, "sweep_outward", spy)
                one, one_scale = _kernels.sweep_outward_batch(
                    v, energies[j:j + 1], c, h, u0[j:j + 1], u1[j:j + 1], mid
                )
            assert np.array_equal(one[:, 0], rows[:, j]) and one_scale[0] == scale
            assert lengths.pop() == mid + 2 and not lengths


@needs_compiled
def test_batched_outward_sweep_equals_compiled_sweeps():
    v, energies, c, h, u0, u1, mid = _barrier_case()
    rows, log_scale = _numerov_py.sweep_outward_batch(v, energies, c, h, u0, u1, mid)
    for j, energy in enumerate(energies):
        u, scale = _numerov_cy.sweep_outward((v - energy) / c, h, u0[j], u1[j], mid + 1)
        assert np.array_equal(rows[:, j], u[mid - 1:mid + 2]) and scale == log_scale[j]


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
