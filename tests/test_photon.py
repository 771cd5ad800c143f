import math

import pytest

from necoh.constants import TWO_PI
from necoh.photon import CavityParams, DispersiveLimitWarning, gamma_purcell, gamma_vacuum
from necoh.surface import LateralTrap

from _oracles import vacuum_rate
from test_refusals import assert_refused  # runs one row of the library refusal table


def test_vacuum_rate_closed_form():
    # the oracle's dipole form reduces to the closed form 2 e^2 w^2 / (3 m c^3)
    for f0 in (0.1, 6.4, 90.0):
        want = vacuum_rate(f0)
        assert gamma_vacuum(LateralTrap.isotropic_ghz(f0)) == pytest.approx(want, rel=1e-13)


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


@pytest.mark.parametrize("field", ["g", "kappa", "detuning"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cavity_rejects_non_finite(field, bad, monkeypatch):
    assert_refused(f"cavity-{field}-{bad}", monkeypatch)


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
    # a warning fails the test (pyproject.toml)
    gamma_purcell(CavityParams.from_mhz(5.0, 0.5, 500.0))
