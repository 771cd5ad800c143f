"""Every input the library refuses, as one table.

Each row is one call with an input the library must refuse where it enters,
in the order of README's "The library refuses inputs with `ValueError` where
they enter" paragraph: row id -> (call, exception, message, warning or None).
A row checks that the call raises exactly that exception with exactly that
message, gives no warning but its own, and runs no quadrature and no phonon
rate: `assert_refused` makes each of them raise AssertionError. The refusal
tests of other modules that kept their names run their rows through it.
"""
import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest

from necoh.constants import NEON, SILICON
from necoh.displacement import KernelMode, gamma_displacement, u_p_average
from necoh.modulation import d_integral, gamma_modulation
from necoh.numerics import QuadratureSpec, integrate_adaptive
from necoh.photon import CavityParams, DispersiveLimitWarning
from necoh.report import BareRates, ChannelRate, CoherenceReport, build_report, thermal_occupation
from necoh.surface import BoundState, LateralTrap, image_coupling

from _oracles import log_kernel_ceiling_ghz, vertical_ceiling_ghz


def _ran(*args, **kwargs):
    raise AssertionError("a quadrature, an integrand or a phonon rate ran")


_NEON_STATE = BoundState.for_material()
# r_B scaled by 8 binds with R / 64, so its own 3R/(4h) is 28.49 GHz, which
# neon's state accepts; a message rounds its ceiling down, never above a refused f0
_CUSTOM_STATE = BoundState(lam=_NEON_STATE.lam / 8)
_LOG_CEILING = log_kernel_ceiling_ghz(NEON.sound_speed, _NEON_STATE.bohr_radius)
_TRAP = LateralTrap.isotropic_ghz(6.4)
# the rates with the kernel that has no log ceiling below the vertical one
_PHONON_RATES = {"displacement": partial(gamma_displacement, mode=KernelMode.EXACT),
                 "modulation": gamma_modulation}


def _at(f0_ghz):
    return LateralTrap.isotropic_ghz(f0_ghz)


def _trap(got):
    return f"trap frequency must be positive and finite: got {got} rad/s"


def _log_kernel(alpha, f0):
    return (f"logarithmic kernel requires q r_B < 1, f0 below 92.6 GHz: alpha = {alpha} "
            f"at {f0} GHz (use the exact kernel)")


def _vertical(ceiling, got):
    return (f"f0 must be below {ceiling} GHz, the vertical 1 -> 2 spacing 3R/(4h), where the "
            f"model holds: got {got} GHz")


_REFUSALS = {
    **{f"trap-{omega!r}": (partial(LateralTrap, omega), ValueError, _trap(got), None)
       for omega, got in [(0.0, "0"), (-1.0, "-1"), (math.nan, "nan"), (math.inf, "inf")]},
    # 1e300 GHz is finite, but its angular frequency overflows to inf rad/s
    **{f"trap-ghz-{f0!r}": (partial(LateralTrap.isotropic_ghz, f0), ValueError, _trap(got), None)
       for f0, got in [(-6.4, "-4.02124e+10"), (math.nan, "nan"), (math.inf, "inf"),
                       (1e300, "inf")]},
    # a negative coupling would give a negative Bohr radius
    **{f"bound-state-{got}": (partial(BoundState, lam), ValueError,
                              f"image coupling must be positive and finite: got {got} erg cm",
                              None)
       for lam, got in [(0.0, "0"), (-4.2e-21, "-4.2e-21"), (math.nan, "nan"),
                        (math.inf, "inf")]},
    "bound-state-no-epsilon": (partial(BoundState.for_material, SILICON), ValueError,
                               "silicon has no dielectric constant set", None),
    **{f"image-coupling-{eps!r}": (partial(image_coupling, eps), ValueError,
                                   "image binding needs epsilon > 1", None)
       for eps in (1.0, 0.9, math.nan)},
    "channel-rate-negative": (partial(ChannelRate, "x", -1.0), ValueError,
                              "negative rate for channel x: got -1.0", None),
    **{f"channel-rate-{gamma!r}": (partial(ChannelRate, "modulation", gamma), ValueError,
                                   f"non-finite rate for channel modulation: {gamma!r}", None)
       for gamma in (math.inf, -math.inf, math.nan)},
    # a report's total sums the estimates, so one bad estimate would spoil it too
    **{f"channel-rate-error-{err!r}": (
        partial(ChannelRate, "cavity", 1.0, err), ValueError,
        f"error estimate for channel cavity must be finite and >= 0: got {err!r}", None)
       for err in (-5.0, -math.inf, math.inf, math.nan)},
    # each message names the value in rad/s, where a finite MHz value can overflow
    **{f"cavity-{field}-{bad}": (
        partial(CavityParams.from_mhz, **{"g_mhz": 5.0, "kappa_mhz": 0.5, "detuning_mhz": 500.0,
                                          f"{field}_mhz": bad}),
        ValueError, f"cavity {field} must be finite: got {bad} rad/s", None)
       for field in ("g", "kappa", "detuning") for bad in (math.nan, math.inf, -math.inf)},
    "cavity-g-overflows": (partial(CavityParams.from_mhz, 1e306, 0.5, 500.0), ValueError,
                           "cavity g must be finite: got inf rad/s", None),
    "cavity-negative-g": (partial(CavityParams.from_mhz, -5.0, 0.5, 500.0), ValueError,
                          "g and kappa must be non-negative: got g = -3.14159e+07 rad/s", None),
    "cavity-negative-kappa": (partial(CavityParams.from_mhz, 5.0, -0.5, 500.0), ValueError,
                              "g and kappa must be non-negative: got kappa = -3.14159e+06 rad/s",
                              None),
    "cavity-zero-detuning": (partial(CavityParams.from_mhz, 5.0, 0.5, 0.0), ValueError,
                             "detuning must be nonzero in the dispersive limit", None),
    **{f"report-temperature-{t_mk!r}": (
        partial(CoherenceReport, BareRates(6.4, (ChannelRate("vacuum", 0.01),)), t_mk),
        ValueError, f"temperature must be finite and >= 0: got {got} K", None)
       for t_mk, got in [(-4.0, "-0.004"), (math.nan, "nan")]},
    # without these checks a nan density gave a nan rate, -1 a negative one and
    # inf a zero one; a bad sound speed failed deep inside the quadrature
    **{f"material-{field}-{bad!r}": (partial(dataclasses.replace, NEON, **{field: bad}),
                                     ValueError, f"neon: {field} must be {wording}: got {bad!r}",
                                     None)
       for field, wording, values in [
           ("sound_speed", "positive and finite", (math.nan, math.inf, -math.inf, -1.133e5, 0.0)),
           ("density", "positive and finite", (math.nan, math.inf, -1.0, 0.0)),
           ("epsilon", "finite", (math.nan, math.inf, -math.inf))]
       for bad in values},
    **{f"phonon-{name}-no-density": (partial(rate, _TRAP, SILICON), ValueError,
                                     "silicon has no density set", None)
       for name, rate in _PHONON_RATES.items()},
    "phonon-displacement-unknown-kernel": (partial(gamma_displacement, _TRAP, mode="approx"),
                                           ValueError, "unknown kernel mode: 'approx'", None),
    # the ceiling is stated rounded down, 92.6 for 92.63 GHz
    "phonon-displacement-log-ceiling": (partial(gamma_displacement, _at(_LOG_CEILING)), ValueError,
                                        _log_kernel("1", "92.631"), None),
    "phonon-displacement-log-100": (partial(gamma_displacement, _at(100.0)), ValueError,
                                    _log_kernel("1.08", "100.000"), None),
    **{f"phonon-{name}-vertical-{state_name}": (
        partial(rate, _at(vertical_ceiling_ghz(state.rydberg)), state=state), ValueError,
        _vertical(ceiling, got), None)
       for name, rate in _PHONON_RATES.items()
       for state_name, state, ceiling, got in [("neon", _NEON_STATE, "1823.2", "1823.27"),
                                               ("custom-state", _CUSTOM_STATE, "28.4", "28.4885")]},
    # without the vertical gate 1e40 GHz gave (0.0, 0.0), the recoil factor
    # having underflowed, and 1e45 GHz an OverflowError from w0 ** 6
    **{f"phonon-displacement-{f0!r}": (partial(_PHONON_RATES["displacement"], _at(f0)), ValueError,
                                       _vertical("1823.2", f"{f0!r}"), None)
       for f0 in (1e40, 1e45)},
    **{f"spec-{tol!r}": (partial(QuadratureSpec, rel_tol=tol), ValueError,
                         f"rel_tol must be in (0, 1e-2], got {tol}", None)
       for tol in (0.0, 0.5, math.nan)},
    # refused before the integrand runs
    **{f"adaptive-bounds-{name}": (partial(integrate_adaptive, _ran, lo, hi), ValueError,
                                   f"integrate_adaptive needs finite lo < hi: got [{lo}, {hi}]",
                                   None)
       for name, lo, hi in [("nan", math.nan, 1.0), ("inf", 0.0, math.inf),
                            ("minus-inf", -math.inf, 0.0), ("reversed", 1.0, 0.0),
                            ("empty", 0.5, 0.5)]},
    **{f"u-p-average-{name}": (partial(u_p_average, eta), ValueError,
                               "u_p_average requires eta > 0", None)
       for name, eta in [("0.0", 0.0), ("-1.0", -1.0), ("nan", math.nan),
                         ("array-with-0.0", np.array([1.0, 0.0]))]},
    "d-integral-negative": (partial(d_integral, -0.1), ValueError, "b must be >= 0", None),
    **{f"occupation-temperature-{t_k!r}": (partial(thermal_occupation, 4e10, t_k), ValueError,
                                           f"temperature must be finite and >= 0: got {t_k} K",
                                           None)
       for t_k in (-0.1, math.nan, math.inf)},
    **{f"occupation-omega-{omega!r}": (partial(thermal_occupation, omega, 0.01), ValueError,
                                       f"omega must be positive and finite: got {got} rad/s", None)
       for omega, got in [(0.0, "0"), (math.nan, "nan"), (math.inf, "inf")]},
    # hbar omega / k T at 10 mK underflows to 0.0, or to a subnormal whose
    # reciprocal overflows
    **{f"occupation-not-finite-{omega!r}": (
        partial(thermal_occupation, omega, 0.01), ValueError,
        f"thermal occupation is not finite at omega = {omega!r} rad/s, T = 0.01 K", None)
       for omega in (6.283e-311, 1.3e-301)},
    # f0 and T are refused before any rate runs
    **{f"build-report-f0-{f0!r}": (partial(build_report, f0), ValueError, _trap(got), None)
       for f0, got in [(0.0, "0"), (-1.0, "-6.28319e+09")]},
    "build-report-log-kernel": (partial(build_report, 100.0), ValueError,
                                _log_kernel("1.08", "100.000"), None),
    "build-report-vertical": (
        partial(build_report, vertical_ceiling_ghz(_NEON_STATE.rydberg), kernel=KernelMode.EXACT),
        ValueError, _vertical("1823.2", "1823.27"), None),
    "build-report-temperature": (partial(build_report, 6.4, -4.0), ValueError,
                                 "temperature must be finite and >= 0: got -0.004 K", None),
    # the cavity rate is checked before the phonon rates run: zero without
    # coupling or loss, and out of float range where (g/detuning)^2 is
    **{f"build-report-cavity-{name}": (partial(build_report, 6.4, cavity=cavity), ValueError,
                                       "cavity rate underflows at f0 = 6.4 GHz", None)
       for name, cavity in [("no-coupling", CavityParams(g=0.0, kappa=1.0, detuning=100.0)),
                            ("no-loss", CavityParams(g=1.0, kappa=0.0, detuning=100.0)),
                            ("g-squared-underflows", CavityParams(g=1e-170, kappa=1.0,
                                                                  detuning=100.0)),
                            ("ratio-underflows", CavityParams.from_mhz(1e-297, 1.0, 1e300))]},
    "build-report-cavity-ratio-overflows": (
        partial(build_report, 6.4, cavity=CavityParams.from_mhz(5.0, 0.5, 1e-320)), ValueError,
        "non-finite rate for channel cavity: inf", DispersiveLimitWarning),
}


def assert_refused(row, monkeypatch):
    for target in ("necoh.displacement.integrate_adaptive", "necoh.modulation.integrate_adaptive",
                   "necoh.modulation.integrate_oscillatory_batch",
                   "necoh.report.gamma_displacement", "necoh.report.gamma_modulation"):
        monkeypatch.setattr(target, _ran)
    call, exception, message, warning = _REFUSALS[row]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(exception) as info:
            call()
    assert type(info.value) is exception
    assert str(info.value) == message
    assert [w.category for w in caught] == ([] if warning is None else [warning])


@pytest.mark.parametrize("row", _REFUSALS)
def test_library_refuses_where_the_input_enters(row, monkeypatch):
    assert_refused(row, monkeypatch)
