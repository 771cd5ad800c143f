import functools
import math
import re

import numpy as np
import pytest

from _oracles import (displacement_integral, displacement_series, log_kernel_ceiling_ghz,
                      rate_scales, up_average_direct, up_average_series, vertical_ceiling_ghz)
from necoh.cli import CLI_SPEC
from necoh.constants import NEON, SILICON
from necoh.displacement import (
    KernelMode,
    gamma_displacement,
    kernel_kinematics,
    u_p_average,
)
from necoh.numerics import DEFAULT_SPEC, ConvergenceError, QuadratureSpec
from necoh.surface import BoundState, LateralTrap, phonon_kinematics


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


def test_u_p_average_just_outside_its_series_window():
    # |x| = |1 - eta^2/4| from 1/4 to 1/2, just outside the series branch,
    # where its 28-term series would be off by up to 2e-10
    for eta in np.concatenate([np.linspace(1.42, 1.73, 27), np.linspace(2.24, 2.45, 27)]).tolist():
        want = up_average_series(eta)
        assert want == pytest.approx(up_average_direct(eta), rel=1e-12)
        assert u_p_average(eta) == pytest.approx(want, rel=1e-13)


def test_u_p_average_vectorized():
    around_two = np.linspace(1.70, 2.30, 61)
    for etas in (np.array([1e-4, 1e-2, 0.3]), around_two):
        vals = u_p_average(etas)
        assert vals.shape == etas.shape
        assert np.all(np.diff(vals) < 0.0)
    # where |x| < 1/4 the value is the 28-term series (1/2) sum_k x^k / (2k + 3),
    # bit for bit as numpy.polynomial sums it
    x = (1.0 - 0.5 * around_two) * (1.0 + 0.5 * around_two)
    near = np.abs(x) < 0.25
    assert near.sum() > 40
    series = np.polynomial.polynomial.polyval(x[near], 0.5 / (2.0 * np.arange(28) + 3.0))
    assert np.array_equal(u_p_average(around_two)[near], series)


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
    alpha, beta, pref, _ = rate_scales(6.4)
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
    alpha, beta, pref, _ = rate_scales(f0_ghz)
    return pref * displacement_integral(alpha, beta, kernel is KernelMode.EXACT)


@pytest.mark.parametrize("f0", np.geomspace(0.01, 90.0, 9))
def test_log_kernel_rate_matches_its_series(f0):
    """The positive-term series of the log-kernel integral, a route with no
    quadrature, agrees with the quadrature oracle, and the library rate's
    error bar bounds its distance from it and meets the default spec."""
    alpha, beta, pref, _ = rate_scales(f0)
    series = displacement_series(alpha, beta)
    assert series == pytest.approx(displacement_integral(alpha, beta, False), rel=1e-13, abs=0.0)
    got, err = gamma_displacement(LateralTrap.isotropic_ghz(f0), spec=DEFAULT_SPEC)
    assert abs(got - pref * series) <= err <= DEFAULT_SPEC.tolerance(got)


# both kernels up to 90 GHz, then the exact one just below the vertical spacing
_KERNEL_POINTS = [(round(f, 3), kernel) for f in np.geomspace(0.1, 90.0, 6)
                  for kernel in KernelMode] + [(1823.2, KernelMode.EXACT)]


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, CLI_SPEC], ids=["library", "cli"])
@pytest.mark.parametrize("f0, kernel", _KERNEL_POINTS,
                         ids=lambda v: v.value if isinstance(v, KernelMode) else None)
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
    limit = log_kernel_ceiling_ghz(NEON.sound_speed, state.bohr_radius)
    assert limit == pytest.approx(92.63, rel=1e-3)
    _, alpha, _ = phonon_kinematics(LateralTrap.isotropic_ghz(limit))
    assert alpha == pytest.approx(1.0, rel=1e-12)


def test_kernel_kinematics_adds_the_log_ceiling_to_phonon_kinematics(state):
    limit = log_kernel_ceiling_ghz(NEON.sound_speed, state.bohr_radius)
    for f0 in (6.4, 92.0, limit, 1823.2):
        trap = LateralTrap.isotropic_ghz(f0)
        assert kernel_kinematics(trap, KernelMode.EXACT) == phonon_kinematics(trap)
        if f0 < limit:
            assert kernel_kinematics(trap, KernelMode.LOG_APPROX) == phonon_kinematics(trap)
        else:
            # the ceiling is stated rounded down, 92.6 for 92.63 GHz
            with pytest.raises(ValueError, match=r"q r_B < 1, f0 below 92\.6 GHz: alpha = "):
                kernel_kinematics(trap, KernelMode.LOG_APPROX)


def test_rate_log_kernel_refused_past_its_limit(state):
    gamma, _ = gamma_displacement(LateralTrap.isotropic_ghz(92.0))
    assert math.isfinite(gamma) and gamma > 0.0
    for f0 in (log_kernel_ceiling_ghz(NEON.sound_speed, state.bohr_radius), 100.0):
        with pytest.raises(ValueError, match="logarithmic kernel requires q r_B < 1"):
            gamma_displacement(LateralTrap.isotropic_ghz(f0), mode=KernelMode.LOG_APPROX)
    gamma, _ = gamma_displacement(LateralTrap.isotropic_ghz(100.0), mode=KernelMode.EXACT,
                                  spec=QuadratureSpec(rel_tol=1e-7))
    assert math.isfinite(gamma) and gamma > 0.0


@pytest.mark.parametrize("scale, shown", [(1, "1823.2"), (8, "28.4")],
                         ids=["neon", "custom-state"])
def test_rate_refuses_f0_at_the_vertical_spacing(state, scale, shown):
    # r_B scaled by k binds with R / k^2, so that state's own 3R/(4h) is
    # neon's / k^2: 28.49 GHz for k = 8, which neon's state accepts; the
    # message rounds the ceiling down, never above a refused f0
    custom = None if scale == 1 else BoundState(lam=state.lam / scale)
    limit = vertical_ceiling_ghz((custom or state).rydberg)
    assert limit == vertical_ceiling_ghz(state.rydberg) / scale ** 2
    message = re.escape(f"f0 must be below {shown} GHz, the vertical 1 -> 2 spacing")
    with pytest.raises(ValueError, match=message):
        gamma_displacement(LateralTrap.isotropic_ghz(limit), state=custom, mode=KernelMode.EXACT)
    gamma, _ = gamma_displacement(LateralTrap.isotropic_ghz(limit * (1.0 - 1e-9)), state=custom,
                                  mode=KernelMode.EXACT, spec=CLI_SPEC)
    assert math.isfinite(gamma) and gamma > 0.0


@pytest.mark.parametrize("f0", [1e40, 1e45])
def test_rate_refuses_huge_f0(f0):
    # without the vertical gate 1e40 GHz gave (0.0, 0.0), the recoil factor
    # having underflowed, and 1e45 GHz an OverflowError from w0 ** 6
    with pytest.raises(ValueError, match="vertical 1 -> 2 spacing"):
        gamma_displacement(LateralTrap.isotropic_ghz(f0), mode=KernelMode.EXACT)


def test_convergence_error_names_channel_and_frequency():
    # the 50-eps floor of each panel's error estimate keeps rel 1e-14 out of reach
    spec = QuadratureSpec(rel_tol=1e-14)
    with pytest.raises(ConvergenceError) as info:
        gamma_displacement(LateralTrap.isotropic_ghz(6.4), spec=spec)
    exc = info.value
    assert str(exc).startswith("displacement channel at 6.400 GHz: adaptive quadrature")
    inner = exc.__cause__
    assert isinstance(inner, ConvergenceError)
    assert (exc.estimate, exc.error_estimate) == (inner.estimate, inner.error_estimate)
    assert exc.error_estimate > 0.0
