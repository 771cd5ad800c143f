import math

import pytest

from necoh.constants import ELEMENTARY_CHARGE, ELECTRON_MASS, HBAR, NEON, TWO_PI
from necoh.surface import BoundState, LateralTrap, image_coupling


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


def test_trap_lengths():
    trap = LateralTrap.isotropic_ghz(6.4)
    w0 = TWO_PI * 6.4e9
    assert trap.omega_x == w0
    assert trap.length_x == pytest.approx(math.sqrt(HBAR / (ELECTRON_MASS * w0)),
                                          rel=1e-14)


def test_transition_dipole():
    trap = LateralTrap.isotropic_ghz(6.4)
    want = ELEMENTARY_CHARGE * trap.length_x / math.sqrt(2.0)
    assert trap.transition_dipole == pytest.approx(want, rel=1e-14)


def test_trap_rejects_nonpositive_frequencies():
    with pytest.raises(ValueError):
        LateralTrap(0.0)
    with pytest.raises(ValueError):
        LateralTrap(-1.0)
    with pytest.raises(ValueError):
        LateralTrap.isotropic_ghz(-6.4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trap_rejects_non_finite_frequencies(bad):
    with pytest.raises(ValueError, match="finite"):
        LateralTrap(bad)
    with pytest.raises(ValueError, match="finite"):
        LateralTrap.isotropic_ghz(bad)
