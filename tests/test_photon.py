import math
import re
import warnings

import pytest

from necoh.constants import ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT, TWO_PI
from necoh.photon import CavityParams, DispersiveLimitWarning, gamma_purcell, gamma_vacuum
from necoh.surface import LateralTrap


def test_vacuum_rate_closed_form():
    # the dipole form 4 d^2 w^3 / (3 hbar c^3), with the transition dipole
    # d = e a_x / sqrt(2) on the trap length, reduces to the closed form
    # 2 e^2 w^2 / (3 m c^3) that the package evaluates
    for f0 in (0.1, 6.4, 90.0):
        trap = LateralTrap.isotropic_ghz(f0)
        w0 = trap.omega_x
        d = ELEMENTARY_CHARGE * trap.length_x / math.sqrt(2.0)
        want = 4.0 * d ** 2 * w0 ** 3 / (3.0 * HBAR * SPEED_OF_LIGHT ** 3)
        assert gamma_vacuum(trap) == pytest.approx(want, rel=1e-13)


def test_vacuum_rate_overflows_to_inf():
    # the closed form overflows to inf where a float power would raise
    # OverflowError; a report refuses such an f0 before it gets here
    assert gamma_vacuum(LateralTrap.isotropic_ghz(1e200)) == math.inf


def test_vacuum_lifetime_operating_point():
    trap = LateralTrap.isotropic_ghz(6.4)
    assert 1.0 / gamma_vacuum(trap) == pytest.approx(98.687, rel=1e-4)


def test_vacuum_rate_scales_with_frequency_squared():
    g1 = gamma_vacuum(LateralTrap.isotropic_ghz(3.2))
    g2 = gamma_vacuum(LateralTrap.isotropic_ghz(6.4))
    assert g2 / g1 == pytest.approx(4.0, rel=1e-12)


def test_cavity_from_mhz():
    cav = CavityParams.from_mhz(5.0, 0.5, 500.0)
    assert cav.g == pytest.approx(TWO_PI * 5e6, rel=1e-15)
    assert cav.kappa == pytest.approx(TWO_PI * 0.5e6, rel=1e-15)
    assert cav.detuning == pytest.approx(TWO_PI * 500e6, rel=1e-15)


def test_cavity_validation():
    with pytest.raises(ValueError):
        CavityParams.from_mhz(-5.0, 0.5, 500.0)
    with pytest.raises(ValueError):
        CavityParams.from_mhz(5.0, -0.5, 500.0)
    with pytest.raises(ValueError):
        CavityParams.from_mhz(5.0, 0.5, 0.0)


@pytest.mark.parametrize("field", ["g", "kappa", "detuning"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cavity_rejects_non_finite(field, bad):
    values = {"g_mhz": 5.0, "kappa_mhz": 0.5, "detuning_mhz": 500.0, f"{field}_mhz": bad}
    with pytest.raises(ValueError, match=f"cavity {field} must be finite"):
        CavityParams.from_mhz(**values)


@pytest.mark.parametrize("mhz, message", [
    # finite in MHz, inf once it is scaled to rad/s
    ((1e306, 0.5, 500.0), "cavity g must be finite: got inf rad/s"),
    ((5.0, -0.5, 500.0), "g and kappa must be non-negative: got kappa = -3.14159e+06 rad/s"),
], ids=["overflows", "negative"])
def test_cavity_refusal_names_the_value(mhz, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CavityParams.from_mhz(*mhz)


def test_purcell_hand_value():
    # g^2 kappa / Delta^2 at (5, 0.5, 500) MHz is exactly 100 pi per second
    cav = CavityParams.from_mhz(5.0, 0.5, 500.0)
    assert gamma_purcell(cav) == pytest.approx(100.0 * math.pi, rel=1e-12)
    assert 1.0 / gamma_purcell(cav) == pytest.approx(1.0 / (100.0 * math.pi), rel=1e-12)


def test_purcell_even_in_detuning():
    red = CavityParams.from_mhz(5.0, 0.5, -500.0)
    blue = CavityParams.from_mhz(5.0, 0.5, 500.0)
    assert gamma_purcell(red) == gamma_purcell(blue)


def test_purcell_warns_outside_dispersive_regime():
    with pytest.warns(DispersiveLimitWarning):
        gamma_purcell(CavityParams.from_mhz(5.0, 0.5, 40.0))


def test_purcell_quiet_inside_dispersive_regime():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma_purcell(CavityParams.from_mhz(5.0, 0.5, 500.0))
