import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from necoh.constants import ELEMENTARY_CHARGE, ELECTRON_MASS, HBAR, NEON, TWO_PI
from necoh.numerics import DEFAULT_SPEC, integrate_semi_infinite
from necoh.surface import (
    BoundState,
    LateralTrap,
    dephasing_form_factor,
    image_coupling,
    relaxation_form_factor,
)


@pytest.fixture(scope="module")
def state():
    return BoundState.for_material(NEON)


def test_image_coupling_value():
    lam = image_coupling(1.244)
    want = ELEMENTARY_CHARGE ** 2 / 4.0 * (0.244 / 2.244)
    assert lam == pytest.approx(want, rel=1e-14)


def test_image_coupling_identity(state):
    # lam = 2 R r_B ties the three derived scales together
    assert state.lam == pytest.approx(2.0 * state.rydberg * state.bohr_radius, rel=1e-12)


def test_image_coupling_rejects_weak_dielectric():
    with pytest.raises(ValueError):
        image_coupling(1.0)
    with pytest.raises(ValueError):
        image_coupling(0.9)


def test_bound_state_scales(state):
    assert state.bohr_radius == pytest.approx(HBAR ** 2 / (state.lam * ELECTRON_MASS),
                                              rel=1e-14)
    assert state.bohr_radius == pytest.approx(1.946678e-7, rel=1e-5)
    assert state.rydberg == pytest.approx(1.610813e-14, rel=1e-5)


def test_level_energies(state):
    assert state.level_energy(1) == -state.rydberg
    assert state.level_energy(2) == pytest.approx(-state.rydberg / 4.0, rel=1e-15)
    assert state.level_energy(1) / state.level_energy(3) == pytest.approx(9.0, rel=1e-13)
    with pytest.raises(ValueError):
        state.level_energy(0)


def test_ground_density_normalized(state):
    # integrate in units of the vertical scale so the nodes land on the support
    r_b = state.bohr_radius
    got, err = integrate_semi_infinite(
        lambda u: state.ground_density(u * r_b) * r_b, DEFAULT_SPEC)
    assert got == pytest.approx(1.0, rel=1e-9)
    assert abs(got - 1.0) <= 10.0 * err + 1e-12


def test_mean_height(state):
    r_b = state.bohr_radius
    got, _ = integrate_semi_infinite(
        lambda u: u * state.ground_density(u * r_b) * r_b * r_b, DEFAULT_SPEC)
    assert got == pytest.approx(state.mean_height, rel=1e-9)
    assert state.mean_height == pytest.approx(1.5 * state.bohr_radius, rel=1e-15)


def test_most_probable_height(state):
    r_b = state.bohr_radius
    assert state.most_probable_height == r_b
    peak = float(state.ground_density(r_b))
    z = np.linspace(0.2 * r_b, 4.0 * r_b, 400)
    assert peak >= float(np.max(state.ground_density(z)))


def test_trap_lengths():
    trap = LateralTrap.isotropic_ghz(6.4)
    w0 = TWO_PI * 6.4e9
    assert trap.omega_x == w0
    assert trap.omega_y == w0
    assert trap.length_x == pytest.approx(math.sqrt(HBAR / (ELECTRON_MASS * w0)),
                                          rel=1e-14)
    assert trap.length_x == trap.length_y


def test_transition_dipole():
    trap = LateralTrap.isotropic_ghz(6.4)
    want = ELEMENTARY_CHARGE * trap.length_x / math.sqrt(2.0)
    assert trap.transition_dipole == pytest.approx(want, rel=1e-14)


def test_trap_rejects_nonpositive_frequencies():
    with pytest.raises(ValueError):
        LateralTrap(0.0, 1.0)
    with pytest.raises(ValueError):
        LateralTrap(1.0, -1.0)
    with pytest.raises(ValueError):
        LateralTrap.isotropic_ghz(-6.4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trap_rejects_non_finite_frequencies(bad):
    with pytest.raises(ValueError, match="finite"):
        LateralTrap(bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        LateralTrap(1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        LateralTrap.isotropic_ghz(bad)


def test_relaxation_form_factor_peaks_at_sqrt2():
    trap = LateralTrap.isotropic_ghz(6.4)
    q_star = math.sqrt(2.0) / trap.length_x
    peak = float(relaxation_form_factor(q_star, 0.0, trap))
    assert peak > float(relaxation_form_factor(0.99 * q_star, 0.0, trap))
    assert peak > float(relaxation_form_factor(1.01 * q_star, 0.0, trap))


def test_dephasing_to_relaxation_ratio():
    trap = LateralTrap.isotropic_ghz(6.4)
    q = 0.3 / trap.length_x
    ratio = float(dephasing_form_factor(q, 0.0, trap)
                  / relaxation_form_factor(q, 0.0, trap))
    assert ratio == pytest.approx(0.5 * (q * trap.length_x) ** 2, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    qx=st.floats(-1e6, 1e6, allow_nan=False),
    qy=st.floats(-1e6, 1e6, allow_nan=False),
)
def test_form_factors_even_and_nonnegative(qx, qy):
    trap = LateralTrap.isotropic_ghz(6.4)
    f = float(relaxation_form_factor(qx, qy, trap))
    assert f >= 0.0
    assert f == float(relaxation_form_factor(-qx, qy, trap))
    assert f == float(relaxation_form_factor(qx, -qy, trap))
    assert float(dephasing_form_factor(qx, qy, trap)) >= 0.0
