"""Modulation-channel checks.

The double integral D gets four independent routes: the production
oscillatory scheme, a closed form through sine/cosine integrals, a
small-argument asymptote, and the small in-plane-momentum limit of the
unreduced K1 kernel F, which only the QAWF oracle computes.
"""

import math
import re

import numpy as np
import pytest

from necoh.cli import CLI_SPEC
from necoh.constants import ELECTRON_MASS, HBAR, NEON, SILICON
from necoh.modulation import d_integral, gamma_modulation, substrate_suppression
from necoh.numerics import ConvergenceError
from necoh.surface import BoundState, LateralTrap

from _oracles import (d_closed, f_kernel_quad, modulation_asymptote, modulation_integral,
                      vertical_ceiling_ghz)


@pytest.fixture(scope="module")
def state():
    return BoundState.for_material(NEON)


def test_d_integral_matches_closed_form():
    for b in (1e-4, 1e-3, 0.01, 0.1, 0.3):
        got, err = d_integral(b)
        assert got == pytest.approx(d_closed(b), rel=1e-6)
        assert err >= 0.0


def test_d_integral_small_b_asymptote():
    # D(b) -> (b/4)(ln(2/b) - 3/2) + (3 pi/16) b^2
    for b, tol in ((1e-4, 1e-6), (1e-3, 1e-4)):
        got, _ = d_integral(b)
        want = 0.25 * b * (math.log(2.0 / b) - 1.5) + 3.0 * math.pi / 16.0 * b * b
        assert got == pytest.approx(want, rel=tol)


def test_d_integral_zero_and_negative():
    assert d_integral(0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        d_integral(-0.1)


def test_f_kernel_reduces_to_d_at_small_in_plane_momentum():
    # F(a, b) -> 16 D(b)^2 / a^2 as a -> 0; F shares no code with d_integral
    d, _ = d_integral(0.05)
    assert d * d == pytest.approx(f_kernel_quad(1e-4, 0.05) * 1e-8 / 16.0, rel=1e-3)


def test_rate_operating_point():
    trap = LateralTrap.isotropic_ghz(6.4)
    gam, err = gamma_modulation(trap, spec=CLI_SPEC)
    assert gam == pytest.approx(887.4502, rel=1e-4)
    assert err >= 0.0
    assert err / gam < 1e-5


def _rate_scales(f0_ghz: float) -> tuple[float, float, float]:
    """alpha, beta and the rate prefactor of ``gamma_modulation`` at f0."""
    state = BoundState.for_material(NEON)
    w0 = 2e9 * math.pi * f0_ghz
    c = NEON.sound_speed
    alpha = w0 / c * state.bohr_radius
    beta = HBAR * w0 / (2.0 * ELECTRON_MASS * c * c)
    pref = 8.0 * state.rydberg ** 2 * w0 ** 4 / (
        math.pi * ELECTRON_MASS * NEON.density * c ** 7)
    return alpha, beta, pref


def test_rate_full_chain_cross_check():
    """Fixed Gauss-Legendre over direction, closed-form D inside."""
    trap = LateralTrap.isotropic_ghz(6.4)
    alpha, beta, pref = _rate_scales(6.4)
    nodes, weights = np.polynomial.legendre.leggauss(80)
    g = 0.5 * (nodes + 1.0)
    u2 = 1.0 - g * g
    total = 0.5 * sum(
        w_i * u2_i * math.exp(-beta * u2_i) * d_closed(alpha * math.sqrt(u2_i)) ** 2
        for w_i, u2_i in zip(weights, u2))
    want = pref * total
    got, _ = gamma_modulation(trap, spec=CLI_SPEC)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("f0", [1e-4, 1e-3, 1e-2, 0.1])
def test_rate_follows_its_low_frequency_law(f0):
    # the f0^6 ln^2 law: both the oracle's integral and the library-default
    # rate over its prefactor meet the asymptote within its two dropped
    # terms, D's next one (3 pi/16) b^2 with b <= alpha, which moves D^2 by at
    # most (3 pi/2) alpha/L relative, and the beta^2 of e^(-beta u)
    alpha, beta, pref = _rate_scales(f0)
    want = modulation_asymptote(alpha, beta)
    bound = 1.5 * math.pi * alpha / (math.log(2.0 / alpha) - 1.5) + beta * beta
    got, _ = gamma_modulation(LateralTrap.isotropic_ghz(f0))
    for value in (modulation_integral(alpha, beta), got / pref):
        assert abs(value / want - 1.0) <= bound


def test_rate_requires_density():
    trap = LateralTrap.isotropic_ghz(6.4)
    with pytest.raises(ValueError):
        gamma_modulation(trap, material=SILICON)


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
        gamma_modulation(LateralTrap.isotropic_ghz(limit), state=custom)
    gamma, _ = gamma_modulation(LateralTrap.isotropic_ghz(limit * (1.0 - 1e-9)), state=custom,
                                spec=CLI_SPEC)
    assert math.isfinite(gamma) and gamma > 0.0


def test_rate_at_tiny_f0_raises_no_floating_point_warning():
    # at 1e-150 GHz the envelope's tail abscissae reach ~1e160, where
    # (s + x)^2 overflows; the rate itself underflows to 0. A warning fails
    # the test (pyproject.toml)
    assert gamma_modulation(LateralTrap.isotropic_ghz(1e-150)) == (0.0, 0.0)


def test_substrate_suppression_operating_point():
    trap = LateralTrap.isotropic_ghz(6.4)
    rows = substrate_suppression(trap)
    assert [r.material for r in rows] == ["silicon", "sapphire"]
    for row in rows:
        assert row.electron_wavenumber == pytest.approx(1.0 / trap.length_x, rel=1e-14)
        assert row.phonon_wavenumber == pytest.approx(
            trap.omega_x / (8.48e5 if row.material == "silicon" else 1.135e6),
            rel=1e-14)
        assert row.wavenumber_ratio == pytest.approx(
            row.electron_wavenumber / row.phonon_wavenumber, rel=1e-14)
        assert row.suppressed is True
    assert rows[0].wavenumber_ratio == pytest.approx(3.93, rel=1e-2)
    assert rows[1].wavenumber_ratio == pytest.approx(5.26, rel=1e-2)


def test_no_suppression_for_soft_host():
    # at 100 GHz the phonon wavenumber of either substrate comes within the
    # suppression threshold of the electron's
    rows = substrate_suppression(LateralTrap.isotropic_ghz(100.0))
    assert [r.wavenumber_ratio for r in rows] == pytest.approx([0.994, 1.331], rel=1e-3)
    for row in rows:
        assert row.suppressed is False


def test_convergence_error_names_channel_and_frequency(monkeypatch):
    # a stub stands in for the 200 real bisections, which would take seconds
    inner = ConvergenceError("adaptive quadrature did not reach tolerance", 1.5, 0.25)

    def give_up(*args, **kwargs):
        raise inner

    monkeypatch.setattr("necoh.modulation.integrate_adaptive", give_up)
    with pytest.raises(ConvergenceError) as info:
        gamma_modulation(LateralTrap.isotropic_ghz(6.4), spec=CLI_SPEC)
    exc = info.value
    assert str(exc).startswith("modulation channel at 6.400 GHz: adaptive quadrature")
    assert exc.__cause__ is inner
    assert (exc.estimate, exc.error_estimate) == (1.5, 0.25)
