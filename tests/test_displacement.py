import functools
import math

import numpy as np
import pytest

from _oracles import displacement_integral, up_average_direct
from necoh.cli import CLI_SPEC
from necoh.constants import ELECTRON_MASS, HBAR, NEON, SILICON
from necoh.displacement import (
    KernelMode,
    gamma_displacement,
    log_kernel_limit_ghz,
    u_p_average,
)
from necoh.numerics import DEFAULT_SPEC, ConvergenceError, QuadratureSpec
from necoh.surface import BoundState, LateralTrap


@pytest.fixture(scope="module")
def state():
    return BoundState.for_material(NEON)


def _rate_scales(f0_ghz: float) -> tuple[float, float, float]:
    """alpha, beta and the rate prefactor of ``gamma_displacement`` at f0."""
    state = BoundState.for_material(NEON)
    w0 = 2e9 * math.pi * f0_ghz
    c = NEON.sound_speed
    r_b = state.bohr_radius
    alpha = w0 / c * r_b
    beta = HBAR * w0 / (2.0 * ELECTRON_MASS * c * c)
    pref = (state.rydberg ** 2 * r_b ** 2 * w0 ** 6
            / (8.0 * math.pi * ELECTRON_MASS * NEON.density * c ** 9))
    return alpha, beta, pref


def test_u_p_average_small_eta_closed_form():
    # averaging the log branch over 4 s^2 e^(-2s) gives -(1/2)(ln(eta/4) + 1)
    eta = 1e-6
    want = -0.5 * (math.log(0.25 * eta) + 1.0)
    assert float(u_p_average(eta)) == pytest.approx(want, rel=1e-9)


# the direct route keeps its digits at small eta (u_p_reference cancels the
# constant on paper), so the grid reaches well below the asymptote test; 1.75
# and 2.23 sit just inside the ends of the series branch around eta = 2
@pytest.mark.parametrize("eta", [*np.geomspace(1e-6, 10.0, 36), 1.75, 2.0 - 1e-2, 2.0 - 1e-4,
                                 2.0 - 1e-6, 2.0, 2.0 + 1e-6, 2.0 + 1e-4, 2.0 + 1e-2, 2.23])
def test_u_p_average_matches_direct_quadrature(eta):
    assert u_p_average(float(eta)) == pytest.approx(up_average_direct(float(eta)), rel=1e-12)


def test_u_p_average_vectorized():
    etas = np.array([1e-4, 1e-2, 0.3])
    vals = u_p_average(etas)
    assert vals.shape == etas.shape
    assert np.all(np.diff(vals) < 0.0)


def test_u_p_average_keeps_shape_and_rejects_nonpositive():
    grid = np.array([[0.1, 2.0], [3.0, 1e-3]])
    vals = u_p_average(grid)
    assert vals.shape == grid.shape
    assert [u_p_average(float(e)) for e in grid.ravel()] == list(vals.ravel())
    assert isinstance(u_p_average(2.0), float)
    for bad in (0.0, -1.0, math.nan, np.array([1.0, 0.0])):
        with pytest.raises(ValueError):
            u_p_average(bad)


def test_exact_kernel_dominates_log_kernel():
    for eta in np.geomspace(1e-3, 0.3, 20):
        assert u_p_average(float(eta)) >= -0.5 * math.log(eta)


def test_rate_operating_point():
    trap = LateralTrap.isotropic_ghz(6.4)
    gam, err = gamma_displacement(trap)
    assert gam == pytest.approx(49.5208, rel=1e-4)
    assert err >= 0.0
    assert err / gam < 1e-6


def test_rate_exact_kernel_same_scale():
    trap = LateralTrap.isotropic_ghz(6.4)
    gam_log, _ = gamma_displacement(trap, mode=KernelMode.LOG_APPROX)
    gam_exact, _ = gamma_displacement(trap, mode=KernelMode.EXACT)
    assert 1.0 < gam_exact / gam_log < 2.0


def test_rate_fixed_grid_cross_check():
    """Composite fixed-order Gauss-Legendre against the adaptive result."""
    trap = LateralTrap.isotropic_ghz(6.4)
    alpha, beta, pref = _rate_scales(6.4)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    total = 0.0
    for lo, hi in ((0.0, 0.5), (0.5, 0.9), (0.9, 0.99), (0.99, 1.0 - 1e-12)):
        half = 0.5 * (hi - lo)
        g = 0.5 * (hi + lo) + half * nodes
        u2 = 1.0 - g * g
        eta = alpha * np.sqrt(u2)
        vals = g * g * u2 ** 3 * np.exp(-beta * u2) * np.log(eta) ** 2
        total += half * float(np.sum(weights * vals))
    want = pref * total
    got, _ = gamma_displacement(trap)
    assert got == pytest.approx(want, rel=1e-9)


@functools.lru_cache(maxsize=None)
def _oracle_rate(f0_ghz: float, kernel: KernelMode) -> float:
    alpha, beta, pref = _rate_scales(f0_ghz)
    return pref * displacement_integral(alpha, beta, kernel is KernelMode.EXACT)


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, CLI_SPEC], ids=["library", "cli"])
@pytest.mark.parametrize("kernel", list(KernelMode), ids=lambda k: k.value)
@pytest.mark.parametrize("f0", [round(f, 3) for f in np.geomspace(0.1, 90.0, 6)])
def test_rate_error_bar_is_honest(f0, kernel, spec):
    """The returned error bounds the true error and meets the spec asked for."""
    got, err = gamma_displacement(LateralTrap.isotropic_ghz(f0), mode=kernel, spec=spec)
    assert abs(got - _oracle_rate(f0, kernel)) <= err
    assert err <= spec.tolerance(got)


def test_rate_requires_density():
    trap = LateralTrap.isotropic_ghz(6.4)
    with pytest.raises(ValueError):
        gamma_displacement(trap, material=SILICON)


def test_rate_rejects_unknown_kernel():
    trap = LateralTrap.isotropic_ghz(6.4)
    with pytest.raises(ValueError):
        gamma_displacement(trap, mode="approx")


def test_rate_error_scales_with_spec():
    trap = LateralTrap.isotropic_ghz(6.4)
    loose = gamma_displacement(trap, spec=QuadratureSpec(rel_tol=1e-4))
    tight = gamma_displacement(trap, spec=QuadratureSpec(rel_tol=1e-10))
    assert loose[0] == pytest.approx(tight[0], rel=1e-4)
    assert tight[1] <= loose[1]


def test_log_kernel_limit_matches_matrix_element_domain(state):
    limit = log_kernel_limit_ghz()
    assert limit == pytest.approx(92.63, rel=1e-3)
    q_limit = 2e9 * math.pi * limit / NEON.sound_speed
    assert q_limit * state.bohr_radius == pytest.approx(1.0, rel=1e-12)


def test_rate_log_kernel_refused_past_its_limit():
    gamma, _ = gamma_displacement(LateralTrap.isotropic_ghz(92.0))
    assert math.isfinite(gamma) and gamma > 0.0
    for f0 in (log_kernel_limit_ghz(), 100.0):
        with pytest.raises(ValueError, match="logarithmic kernel requires q r_B < 1"):
            gamma_displacement(LateralTrap.isotropic_ghz(f0), mode=KernelMode.LOG_APPROX)
    gamma, _ = gamma_displacement(LateralTrap.isotropic_ghz(100.0), mode=KernelMode.EXACT,
                                  spec=QuadratureSpec(rel_tol=1e-7))
    assert math.isfinite(gamma) and gamma > 0.0


def test_convergence_error_names_channel_and_frequency():
    spec = QuadratureSpec(rel_tol=1e-14, max_subdivisions=10)
    with pytest.raises(ConvergenceError) as info:
        gamma_displacement(LateralTrap.isotropic_ghz(6.4), spec=spec)
    exc = info.value
    assert str(exc).startswith("displacement channel at 6.400 GHz: adaptive quadrature")
    inner = exc.__cause__
    assert isinstance(inner, ConvergenceError)
    assert (exc.estimate, exc.error_estimate, exc.subdivisions) == (
        inner.estimate, inner.error_estimate, inner.subdivisions)
    assert exc.subdivisions == 10 and exc.error_estimate > 0.0
