"""Phonon emission through interface displacement.

A longitudinal bulk phonon reaching the surface displaces the interface, which
shakes the image potential seen by the electron. The resulting one-phonon
relaxation rate of the lateral qubit is an angular integral over the emission
direction, with a vertical matrix element that is logarithmic in the phonon
wavenumber. The log form is the small-q asymptote; the exact kernel averages
the profile function u_p over the vertical ground state, in closed form, and is
available as an alternative mode.
"""
from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from .constants import ELECTRON_MASS, HBAR, NEON, Material
from .numerics import DEFAULT_SPEC, ConvergenceError, QuadratureSpec, integrate_adaptive
from .surface import BoundState, LateralTrap

# inset keeping the log kernel finite at the gamma = 1 endpoint
ENDPOINT_INSET = 1e-12

# <u_p> is (1/2) sum_k x^k / (2k + 3) in x = 1 - eta^2/4; used for |x| below
# _SERIES_X (eta in 1.73-2.24), where 28 terms reach 0.25^28 ~ 1e-17
_SERIES_X = 0.25
_SERIES_COEFFS = 0.5 / (2.0 * np.arange(28) + 3.0)


class KernelMode(enum.Enum):
    """Vertical-kernel treatment for the displacement channel."""

    LOG_APPROX = "approx"
    EXACT = "exact"


def u_p_average(eta) -> np.ndarray:
    """Ground-state average <u_p>(eta) = 4 int_0^inf s^2 e^(-2s) u_p(eta s) ds.

    Closed form. Integrating u_p(x) = (1 - x K1(x)) / x^2 by parts against
    the Laplace transform of K0, int_0^inf e^(-pt) K0(at) dt = arccosh(p/a)
    / sqrt(p^2 - a^2), gives

        <u_p>(eta) = 4/(4 - eta^2) (A/r - 1/2),  r = sqrt(4 - eta^2),
                                                  A = arccosh(2/eta),

    which continues past eta = 2 (f0 above ~185 GHz) with A/r =
    arccos(2/eta) / sqrt(eta^2 - 4). In x = 1 - eta^2/4 both read
    (F(x) - 1) / (2x), with F = artanh(sqrt x)/sqrt x for x > 0 and
    arctan(sqrt -x)/sqrt -x for x < 0. The point eta = 2 is removable: for
    |x| < 1/4 the Taylor series (1/2) sum_k x^k / (2k + 3) replaces the
    quotient. Within 2e-15 of a 40-digit evaluation on eta in [1e-12, 1e3];
    for eta << 1 it approaches (1/2)(ln(4/eta) - 1). Vectorized over
    eta > 0, shape kept.
    """
    arr = np.asarray(eta, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("u_p_average requires eta > 0")
    # 1 - eta/2 is exact wherever x is small, so x keeps its relative digits
    x = (1.0 - 0.5 * arr) * (1.0 + 0.5 * arr)
    y = np.sqrt(np.abs(x))
    vals = np.empty_like(x)
    below = x >= _SERIES_X
    if np.any(below):
        e, yb = arr[below], y[below]
        # artanh(y) = ln(2 (1 + y) / eta), through log1p to stay accurate near eta = 2
        vals[below] = (np.log1p((2.0 - e + 2.0 * yb) / e) / yb - 1.0) / (2.0 * x[below])
    above = x <= -_SERIES_X
    if np.any(above):
        ya = y[above]
        vals[above] = (np.arctan(ya) / ya - 1.0) / (2.0 * x[above])
    near = ~(below | above)
    if np.any(near):
        vals[near] = np.polynomial.polynomial.polyval(x[near], _SERIES_COEFFS)
    if arr.ndim == 0:
        return float(vals)
    return vals


def log_kernel_limit_ghz() -> float:
    """Trap frequency, GHz, at which alpha = (w0/c) r_B reaches 1 in neon.

    The logarithmic kernel -ln(q r_B)/2 holds only for q r_B < 1; a phonon
    emitted at w0 reaches q r_B = alpha, so LOG_APPROX needs f0 below this.
    """
    return NEON.sound_speed / (2e9 * np.pi * BoundState.for_material(NEON).bohr_radius)


def gamma_displacement(trap: LateralTrap, material: Material = NEON,
                       state: BoundState | None = None,
                       mode: KernelMode = KernelMode.LOG_APPROX,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Displacement-channel relaxation rate, s^-1, with its error estimate.

    gamma = [R^2 r_B^2 w0^6 / (8 pi m_e rho c^9)]
            * int_0^1 dg g^2 (1-g^2)^3 exp(-beta (1-g^2)) k(eta)^2

    with g the direction cosine to the surface normal, eta = (w0/c) r_B
    sqrt(1-g^2), beta = hbar w0 / (2 m_e c^2), and k the squared-kernel log
    (or exact u_p average, per ``mode``). The gamma = 1 endpoint is inset by
    1e-12 to keep the log finite. The log kernel needs eta < 1 over the whole
    range, i.e. alpha < 1 (f0 below ``log_kernel_limit_ghz``); beyond that
    LOG_APPROX raises ValueError. A ConvergenceError names the channel and
    the trap frequency.
    """
    if material.density is None:
        raise ValueError(f"{material.name} has no density set")
    if state is None:
        state = BoundState.for_material(material)
    w0 = trap.omega_x
    c = material.sound_speed
    r_b = state.bohr_radius
    alpha = w0 / c * r_b
    beta = HBAR * w0 / (2.0 * ELECTRON_MASS * c * c)
    pref = (state.rydberg ** 2 * r_b ** 2 * w0 ** 6
            / (8.0 * np.pi * ELECTRON_MASS * material.density * c ** 9))

    kernel_sq: Callable[[np.ndarray], np.ndarray]
    if mode is KernelMode.LOG_APPROX:
        if alpha >= 1.0:
            raise ValueError(f"logarithmic kernel requires q r_B < 1: alpha = {alpha:.4g} "
                             f"at {w0 / (2e9 * np.pi):.3f} GHz (use the exact kernel)")
        kernel_sq = lambda eta: np.log(eta) ** 2
    elif mode is KernelMode.EXACT:
        kernel_sq = lambda eta: 4.0 * u_p_average(eta) ** 2
    else:
        raise ValueError(f"unknown kernel mode: {mode!r}")

    def integrand(g: np.ndarray) -> np.ndarray:
        u2 = 1.0 - g * g
        eta = alpha * np.sqrt(u2)
        return g * g * u2 ** 3 * np.exp(-beta * u2) * kernel_sq(eta)

    try:
        val, err = integrate_adaptive(integrand, 0.0, 1.0 - ENDPOINT_INSET, spec)
    except ConvergenceError as exc:
        raise exc.within(f"displacement channel at {w0 / (2e9 * np.pi):.3f} GHz") from exc
    return pref * val, pref * err
