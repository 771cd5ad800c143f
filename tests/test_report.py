import math

import pytest
from hypothesis import example, given, settings, strategies as st

from necoh.cli import CLI_SPEC
from necoh.constants import BOLTZMANN, HBAR, mk_to_kelvin
from necoh.displacement import KernelMode, gamma_displacement
from necoh.modulation import gamma_modulation
from necoh.numerics import QuadratureSpec
from necoh.photon import CavityParams, gamma_vacuum
from necoh.report import (
    ChannelRate,
    build_report,
    gamma_phi_one_phonon,
    sweep,
    thermal_occupation,
)
from necoh.surface import LateralTrap

FAST_SPEC = QuadratureSpec(rel_tol=1e-7, max_subdivisions=400)


@pytest.fixture(scope="module")
def cavity():
    return CavityParams.from_mhz(5.0, 0.5, 500.0)


@pytest.fixture(scope="module")
def report(cavity):
    return build_report(6.4, temperature_mk=10.0, cavity=cavity, spec=FAST_SPEC)


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(4e10, 0.0) == 0.0


def test_thermal_occupation_boltzmann_tail():
    trap = LateralTrap.isotropic_ghz(6.4)
    x = HBAR * trap.omega_x / (BOLTZMANN * mk_to_kelvin(10.0))
    # deep in the tail 1/(e^x - 1) and e^-x agree to e^-x
    assert x > 30.0
    assert thermal_occupation(trap.omega_x, mk_to_kelvin(10.0)) == pytest.approx(
        math.exp(-x), rel=1e-12)


def test_thermal_occupation_past_the_exponent_range():
    # 1/expm1(x) overflows past x ~ 709.8, i.e. above ~148 GHz at 10 mK
    t_k = mk_to_kelvin(10.0)
    for x in (650.0, 705.0):
        omega = x * BOLTZMANN * t_k / HBAR
        x_used = HBAR * omega / (BOLTZMANN * t_k)
        assert math.isclose(thermal_occupation(omega, t_k), math.exp(-x_used),
                            rel_tol=1e-12, abs_tol=0.0)
    assert thermal_occupation(LateralTrap.isotropic_ghz(200.0).omega_x, t_k) == 0.0


def test_thermal_occupation_validation():
    with pytest.raises(ValueError):
        thermal_occupation(4e10, -0.1)
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 0.01)


@pytest.mark.parametrize("omega, temperature_k", [
    (4e10, math.nan), (4e10, math.inf), (math.nan, 0.01), (math.inf, 0.01)])
def test_thermal_occupation_rejects_non_finite(omega, temperature_k):
    with pytest.raises(ValueError, match="finite"):
        thermal_occupation(omega, temperature_k)


def test_thermal_occupation_where_kt_underflows():
    # BOLTZMANN * 1e-313 K rounds to 0.0: the T -> 0 limit, not a division by it
    assert BOLTZMANN * 1e-313 == 0.0
    assert thermal_occupation(4e10, 1e-313) == 0.0


# hbar omega / k T at 10 mK underflows to 0.0, or to a subnormal whose
# reciprocal overflows
@pytest.mark.parametrize("omega", [6.283e-311, 1.3e-301])
def test_thermal_occupation_refuses_a_non_finite_occupation(omega):
    with pytest.raises(ValueError, match=r"not finite at omega = .* rad/s, T = 0.01 K"):
        thermal_occupation(omega, 0.01)


def test_dephasing_rate_is_exactly_zero():
    for f0 in (1.0, 6.4, 10.0):
        trap = LateralTrap.isotropic_ghz(f0)
        assert gamma_phi_one_phonon(trap) == 0.0
        assert gamma_phi_one_phonon(trap, temperature_k=0.3) == 0.0


def test_channel_rate_doubling_is_bitwise():
    ch = ChannelRate.from_gamma("x", 3.7)
    assert ch.t1 == 1.0 / 3.7
    assert ch.t2 == 2.0 * ch.t1


def test_channel_rate_zero_rate_never_decays():
    ch = ChannelRate.from_gamma("x", 0.0)
    assert ch.t1 == math.inf
    assert ch.t2 == math.inf


def test_channel_rate_rejects_negative():
    with pytest.raises(ValueError):
        ChannelRate.from_gamma("x", -1.0)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_channel_rate_rejects_non_finite(gamma):
    with pytest.raises(ValueError, match="channel modulation"):
        ChannelRate.from_gamma("modulation", gamma)


@settings(deadline=None, max_examples=100)
@given(f0=st.floats(1e-4, 90.0), t_mk=st.floats(0.0, 1e3),
       kernel=st.sampled_from(list(KernelMode)))
@example(f0=6.4, t_mk=1e-310, kernel=KernelMode.LOG_APPROX)  # k T underflows to 0.0
def test_displacement_channel_properties(f0, t_mk, kernel):
    """A finite positive stimulated rate, T2 = 2 T1 bit for bit, and the
    vacuum rate exactly quadratic in omega, at the CLI spec."""
    trap = LateralTrap.isotropic_ghz(f0)
    stim = 1.0 + thermal_occupation(trap.omega_x, mk_to_kelvin(t_mk))
    gamma, err = gamma_displacement(trap, mode=kernel, spec=CLI_SPEC)
    assert math.isfinite(stim * gamma) and stim * gamma > 0.0
    ch = ChannelRate.from_gamma("displacement", stim * gamma, stim * err)
    assert ch.t2 == 2.0 * ch.t1
    doubled = LateralTrap(2.0 * trap.omega_x)
    assert gamma_vacuum(doubled) / gamma_vacuum(trap) == pytest.approx(4.0, rel=1e-14)


def test_report_channel_set(report):
    assert [c.name for c in report.channels] == [
        "vacuum", "displacement", "modulation", "cavity"]
    with pytest.raises(KeyError):
        report.channel("phonon")


def test_report_photon_channels_at_zero_occupation(report, cavity):
    # photon channels carry no thermal factor; their entries equal the bare rates
    trap = LateralTrap.isotropic_ghz(6.4)
    assert report.channel("vacuum").gamma == gamma_vacuum(trap)
    from necoh.photon import gamma_purcell
    assert report.channel("cavity").gamma == gamma_purcell(cavity)


def test_report_phonon_channels_carry_stimulation(report):
    trap = LateralTrap.isotropic_ghz(6.4)
    stim = 1.0 + report.occupation
    bare_dis, _ = gamma_displacement(trap, spec=FAST_SPEC)
    bare_mod, _ = gamma_modulation(trap, spec=FAST_SPEC)
    assert report.channel("displacement").gamma == stim * bare_dis
    assert report.channel("modulation").gamma == stim * bare_mod


def test_report_totals(report):
    assert report.total_gamma == sum(c.gamma for c in report.channels)
    assert report.total_t1 == pytest.approx(1.0 / report.total_gamma, rel=1e-15)
    assert report.total_t2 == 2.0 * report.total_t1


def test_report_t2_doubling_every_channel(report):
    assert report.gamma_phi == 0.0
    for ch in report.channels:
        assert ch.t2 == 2.0 * ch.t1


def test_report_zero_temperature_matches_bare_rates():
    rep = build_report(2.0, temperature_mk=0.0, spec=FAST_SPEC)
    trap = LateralTrap.isotropic_ghz(2.0)
    bare, _ = gamma_displacement(trap, spec=FAST_SPEC)
    assert rep.occupation == 0.0
    assert rep.channel("displacement").gamma == bare


def test_report_substrate_rows(report):
    assert [r.material for r in report.substrates] == ["silicon", "sapphire"]
    assert all(r.suppressed for r in report.substrates)


def test_report_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        build_report(0.0)
    with pytest.raises(ValueError):
        build_report(-1.0)


def test_sweep_preserves_order():
    reports = sweep([3.0, 1.5], spec=FAST_SPEC)
    assert [r.f0_ghz for r in reports] == [3.0, 1.5]
    assert reports[0].channel("modulation").gamma > reports[1].channel("modulation").gamma
