import dataclasses
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import necoh.report as report_module
from necoh.cli import CLI_SPEC, render_rates
from necoh.constants import BOLTZMANN, HBAR, mk_to_kelvin
from necoh.displacement import KernelMode, gamma_displacement
from necoh.modulation import gamma_modulation
from necoh.photon import CavityParams, DispersiveLimitWarning, gamma_vacuum
from necoh.report import (
    BareRates,
    ChannelRate,
    CoherenceReport,
    build_report,
    sweep,
    thermal_occupation,
)
from necoh.surface import BoundState, LateralTrap

from _oracles import stimulated, vertical_ceiling_ghz


@pytest.fixture(scope="module")
def cavity():
    return CavityParams.from_mhz(5.0, 0.5, 500.0)


@pytest.fixture(scope="module")
def report(cavity):
    return build_report(6.4, temperature_mk=10.0, cavity=cavity, spec=CLI_SPEC)


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
    with pytest.raises(ValueError, match=r"^temperature must be finite and >= 0: got -0\.1 K$"):
        thermal_occupation(4e10, -0.1)
    with pytest.raises(ValueError, match="^omega must be positive and finite: got 0 rad/s$"):
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


def test_dephasing_rate_is_exactly_zero(report):
    assert report.gamma_phi == 0.0
    assert dataclasses.replace(report, temperature_mk=300.0).gamma_phi == 0.0


def test_channel_rate_doubling_is_bitwise():
    ch = ChannelRate("x", 3.7)
    assert ch.t1 == 1.0 / 3.7
    assert ch.t2 == 2.0 * ch.t1


def test_channel_rate_zero_rate_never_decays():
    ch = ChannelRate("x", 0.0)
    assert ch.t1 == math.inf
    assert ch.t2 == math.inf


@pytest.mark.parametrize("g, kappa", [(0.0, 1.0), (1.0, 0.0), (1e-170, 1.0)],
                         ids=["no-coupling", "no-loss", "g-squared-underflows"])
def test_report_refuses_a_cavity_rate_that_is_zero(g, kappa, monkeypatch):
    # the cavity channel passes the same normal-float gate as the others,
    # so no report carries an infinite T1; phonon rates stubbed
    monkeypatch.setattr(report_module, "gamma_displacement", lambda trap, **kw: (1.0, 0.0))
    monkeypatch.setattr(report_module, "gamma_modulation", lambda trap, **kw: (1.0, 0.0))
    cavity = CavityParams(g=g, kappa=kappa, detuning=100.0)
    with pytest.raises(ValueError, match="^cavity rate underflows at f0 = 6.4 GHz$"):
        build_report(6.4, cavity=cavity)


def test_report_refuses_a_cavity_ratio_out_of_float_range_with_value_error(monkeypatch):
    # g/|detuning| past the float range either way: a ValueError, as for every
    # other refused input; phonon rates stubbed
    monkeypatch.setattr(report_module, "gamma_displacement", lambda trap, **kw: (1.0, 0.0))
    monkeypatch.setattr(report_module, "gamma_modulation", lambda trap, **kw: (1.0, 0.0))
    with pytest.warns(DispersiveLimitWarning), pytest.raises(
            ValueError, match="^non-finite rate for channel cavity: inf$"):
        build_report(6.4, cavity=CavityParams.from_mhz(5.0, 0.5, 1e-320))
    with pytest.raises(ValueError, match="^cavity rate underflows at f0 = 6.4 GHz$"):
        build_report(6.4, cavity=CavityParams.from_mhz(1e-297, 1.0, 1e300))


def test_report_refuses_channel_rates_whose_sum_overflows(monkeypatch):
    # each channel is finite, but their total would print as inf (T1 = 0)
    monkeypatch.setattr(report_module, "gamma_displacement", lambda trap, **kw: (1e308, 0.0))
    monkeypatch.setattr(report_module, "gamma_modulation", lambda trap, **kw: (1e308, 0.0))
    with pytest.raises(ValueError, match="^total rate is not finite at f0 = 6.4 GHz$"):
        build_report(6.4)


def test_report_takes_no_derived_rows():
    # f0, occupation, channels, gamma_phi and substrates follow from these,
    # so no report can carry rows that contradict its temperature or its rates
    assert [f.name for f in dataclasses.fields(BareRates)] == ["f0_ghz", "channels"]
    assert [f.name for f in dataclasses.fields(CoherenceReport)] == ["bare", "temperature_mk"]


def test_a_report_cannot_move_to_another_f0():
    # its bare rates hold at their own f0 only; another f0 needs build_report
    rep = CoherenceReport(BareRates(6.4, (ChannelRate("vacuum", 0.01),)), 10.0)
    assert rep.f0_ghz == 6.4
    with pytest.raises(TypeError):
        dataclasses.replace(rep, f0_ghz=10.0)


def test_a_temperature_change_needs_no_rate_call(monkeypatch):
    calls = []

    def stub(gamma):
        def rate(trap, **kw):
            calls.append(trap)
            return gamma, 1e-9 * gamma
        return rate

    monkeypatch.setattr(report_module, "gamma_displacement", stub(24.7))
    monkeypatch.setattr(report_module, "gamma_modulation", stub(444.0))
    cold = build_report(6.4, 10.0)
    assert len(calls) == 2
    moved = dataclasses.replace(cold, temperature_mk=300.0)
    rebuilt = CoherenceReport(cold.bare, 300.0)
    assert len(calls) == 2
    hot = build_report(6.4, 300.0)
    for fmt in ("table", "csv", "json"):
        for rep in (moved, rebuilt):
            assert render_rates(rep, fmt) == render_rates(hot, fmt)
        assert render_rates(moved, fmt) != render_rates(cold, fmt)


def test_report_stores_a_negative_zero_temperature_as_zero(monkeypatch):
    monkeypatch.setattr(report_module, "gamma_displacement", lambda trap, **kw: (24.7, 0.0))
    monkeypatch.setattr(report_module, "gamma_modulation", lambda trap, **kw: (444.0, 0.0))
    built = CoherenceReport(BareRates(6.4, (ChannelRate("vacuum", 0.01),)), -0.0)
    moved = dataclasses.replace(build_report(2.0), temperature_mk=-0.0)
    for rep in (built, moved):
        assert math.copysign(1.0, rep.temperature_mk) == 1.0
    assert "f0 = 2 GHz, T = 0 mK" in render_rates(moved, "table")
    assert '"temperature_mk": 0.0' in render_rates(moved, "json")


@pytest.mark.parametrize("t_mk, got", [(-4.0, "-0.004"), (math.nan, "nan")], ids=["-4.0", "nan"])
def test_report_refuses_a_temperature_built_directly(t_mk, got):
    with pytest.raises(ValueError, match=f"^temperature must be finite and >= 0: got {got} K$"):
        CoherenceReport(BareRates(6.4, (ChannelRate("vacuum", 0.01),)), t_mk)


def test_report_refuses_bare_rates_whose_thermal_total_overflows():
    # each stimulated rate stays finite (n ~ 325 at 100 K and 6.4 GHz), their sum does not
    bare = BareRates(6.4, (ChannelRate("displacement", 4e305), ChannelRate("modulation", 4e305)))
    assert CoherenceReport(bare, 0.0).total.gamma == 8e305
    with pytest.raises(ValueError, match="^total rate is not finite at f0 = 6.4 GHz$"):
        CoherenceReport(bare, 1e5)


def test_channel_rate_rejects_negative():
    with pytest.raises(ValueError, match=r"^negative rate for channel x: got -1\.0$"):
        ChannelRate("x", -1.0)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
def test_channel_rate_rejects_non_finite(gamma):
    with pytest.raises(ValueError, match="^non-finite rate for channel modulation: "):
        ChannelRate("modulation", gamma)


@pytest.mark.parametrize("err", [-5.0, -math.inf, math.inf, math.nan])
def test_channel_rate_rejects_a_bad_error_estimate(err):
    # a report's total sums the estimates, so one bad estimate would spoil it too
    want = f"error estimate for channel cavity must be finite and >= 0: got {err!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        ChannelRate("cavity", 1.0, err)


def test_channel_rate_takes_no_lifetimes():
    # T1 and T2 follow from gamma, so no rate can carry lifetimes that contradict it
    with pytest.raises(TypeError):
        ChannelRate("x", 1.0, 5.0, 3.0)


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
    ch = ChannelRate("displacement", stim * gamma, stim * err)
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
    bare_dis, _ = gamma_displacement(trap, spec=CLI_SPEC)
    bare_mod, _ = gamma_modulation(trap, spec=CLI_SPEC)
    assert report.channel("displacement").gamma == stim * bare_dis
    assert report.channel("modulation").gamma == stim * bare_mod


def test_report_totals(report):
    total = report.total
    assert total.name == "total"
    assert total.gamma == sum(c.gamma for c in report.channels)
    assert total.error_estimate == sum(c.error_estimate for c in report.channels)
    assert total.t1 == pytest.approx(1.0 / total.gamma, rel=1e-15)
    assert total.t2 == 2.0 * total.t1


def test_report_t2_doubling_every_channel(report):
    assert report.gamma_phi == 0.0
    for ch in report.channels:
        assert ch.t2 == 2.0 * ch.t1


def test_report_zero_temperature_matches_bare_rates():
    rep = build_report(2.0, temperature_mk=0.0, spec=CLI_SPEC)
    trap = LateralTrap.isotropic_ghz(2.0)
    bare, _ = gamma_displacement(trap, spec=CLI_SPEC)
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


def test_report_refuses_f0_at_the_vertical_spacing():
    with pytest.raises(ValueError, match="vertical 1 -> 2 spacing"):
        build_report(vertical_ceiling_ghz(BoundState.for_material().rydberg),
                     kernel=KernelMode.EXACT)


def test_phonon_t1_is_the_emission_lifetime():
    # T1 = 1/(gamma (1 + n)), not the two-level 1/(gamma (1 + 2n)); at 10 mK
    # the two agree to 5e-14, at 300 mK and 6.4 GHz (n ~ 0.56) by 36%; the
    # error bar scales by 1 + n as the rate does
    rep = build_report(6.4, temperature_mk=300.0, spec=CLI_SPEC)
    trap = LateralTrap.isotropic_ghz(6.4)
    n = stimulated(6.4, 300.0) - 1.0
    assert rep.occupation == pytest.approx(n, rel=1e-13)
    for name, rate in (("displacement", gamma_displacement), ("modulation", gamma_modulation)):
        bare, bare_err = rate(trap, spec=CLI_SPEC)
        ch = rep.channel(name)
        assert ch.gamma == pytest.approx((1.0 + n) * bare, rel=1e-13)
        assert ch.error_estimate == pytest.approx((1.0 + n) * bare_err, rel=1e-13)
        assert ch.t1 == pytest.approx(1.0 / ((1.0 + n) * bare), rel=1e-13)
        assert (1.0 + 2.0 * n) * bare / ch.gamma == pytest.approx(1.36, abs=0.01)


def test_sweep_preserves_order():
    reports = sweep([3.0, 1.5], spec=CLI_SPEC)
    assert [r.f0_ghz for r in reports] == [3.0, 1.5]
    assert reports[0].channel("modulation").gamma > reports[1].channel("modulation").gamma
