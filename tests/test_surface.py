import dataclasses
import math

import pytest

from necoh.cli import CLI_SPEC
from necoh.constants import ELEMENTARY_CHARGE, ELECTRON_MASS, HBAR, NEON, SILICON, TWO_PI
from necoh.displacement import KernelMode, gamma_displacement
from necoh.modulation import gamma_modulation
from necoh.surface import BoundState, LateralTrap, image_coupling, phonon_kinematics

from _oracles import rate_scales, vertical_ceiling_ghz


def test_image_coupling_value():
    lam = image_coupling(1.244)
    want = ELEMENTARY_CHARGE ** 2 / 4.0 * (0.244 / 2.244)
    assert lam == pytest.approx(want, rel=1e-14)


def test_image_coupling_identity(state):
    # lam = 2 R r_B ties the three derived scales together
    assert state.lam == pytest.approx(2.0 * state.rydberg * state.bohr_radius, rel=1e-12)


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


def test_vertical_limit_is_the_one_to_two_spacing(state):
    # level n binds at -R/n^2, so 1 -> 2 spans 3R/4; R/h is ~2431 GHz in neon
    limit = vertical_ceiling_ghz(state.rydberg)
    assert limit * 1e9 * TWO_PI * HBAR == pytest.approx(0.75 * state.rydberg, rel=1e-14)
    assert limit == pytest.approx(1823.3, rel=1e-4)
    with pytest.raises(ValueError, match=r"^f0 must be below 1823\.2 GHz, the vertical 1 -> 2 "):
        phonon_kinematics(LateralTrap.isotropic_ghz(limit))
    assert phonon_kinematics(LateralTrap.isotropic_ghz(limit * (1.0 - 1e-12)))[0] == state


def test_phonon_kinematics(state):
    trap = LateralTrap.isotropic_ghz(6.4)
    got, alpha, beta = phonon_kinematics(trap)
    assert got == state
    want_alpha, want_beta, _, _ = rate_scales(6.4)
    assert alpha == pytest.approx(want_alpha, rel=1e-14)
    assert beta == pytest.approx(want_beta, rel=1e-14)
    custom = BoundState(lam=state.lam / 2.0)
    assert phonon_kinematics(trap, state=custom)[:2] == (custom, pytest.approx(2.0 * alpha))
    with pytest.raises(ValueError, match="silicon has no density set"):
        phonon_kinematics(trap, SILICON)
    # beta u is the lateral form factor's exponent q_par^2 a_x^2 / 2, with
    # q_par = (w0/c) sqrt(u) the in-plane phonon wavenumber
    for f0 in (1.0, 6.4, 10.0):
        trap = LateralTrap.isotropic_ghz(f0)
        beta = phonon_kinematics(trap)[2]
        for u in (0.1, 0.5, 1.0):
            q_par = trap.omega_x / NEON.sound_speed * math.sqrt(u)
            assert beta * u == pytest.approx(q_par ** 2 * trap.length_x ** 2 / 2.0, rel=1e-14)


def test_phonon_rates_scale_as_one_over_density():
    # both prefactors carry 1/rho, and the bound state and kinematics do not
    # depend on it
    trap = LateralTrap.isotropic_ghz(6.4)
    denser = dataclasses.replace(NEON, density=2.0 * NEON.density)
    for rate in (gamma_modulation, gamma_displacement):
        gamma = rate(trap, spec=CLI_SPEC)[0]
        assert rate(trap, denser, spec=CLI_SPEC)[0] == pytest.approx(gamma / 2.0, rel=1e-14)


def test_phonon_rates_scale_as_the_fifth_power(state):
    # w0 -> k^2 w0, c -> k c and Lambda -> k Lambda (so r_B -> r_B / k) leave
    # alpha and beta as they are. With the rate linear in 1/rho, dimensional
    # analysis leaves rate = w0 hbar / (rho c r_B^4) H(alpha, beta), which
    # grows by k^5: a prefactor of the wrong dimension (say c^8 for c^9)
    # breaks it, an extra dimensionless factor of alpha or beta does not
    rates = {"modulation": lambda *args: gamma_modulation(*args, spec=CLI_SPEC)[0]}
    for mode in KernelMode:
        rates[f"displacement {mode.value}"] = (
            lambda *args, mode=mode: gamma_displacement(*args, mode=mode, spec=CLI_SPEC)[0])
    for f0 in (1.0, 6.4, 10.0):
        trap = LateralTrap.isotropic_ghz(f0)
        for name, rate in rates.items():
            gamma = rate(trap, NEON, state)
            for k in (0.5, 3.0):
                scaled = rate(LateralTrap(k * k * trap.omega_x),
                              dataclasses.replace(NEON, sound_speed=k * NEON.sound_speed),
                              BoundState(lam=k * state.lam))
                assert scaled == pytest.approx(k ** 5 * gamma, rel=1e-14), (name, f0, k)


def test_bound_state_takes_no_derived_scales(state):
    # r_B and R follow from Lambda, so no state can carry scales that contradict it
    with pytest.raises(TypeError):
        BoundState(state.lam, 2.0 * state.bohr_radius, state.rydberg)
    with pytest.raises(TypeError):
        BoundState(lam=state.lam, bohr_radius=2.0 * state.bohr_radius, rydberg=state.rydberg)
