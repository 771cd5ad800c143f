"""Phonon emission through interface displacement.

A longitudinal bulk phonon reaching the surface displaces the interface, which
shakes the image potential seen by the electron. The resulting one-phonon
relaxation rate of the lateral qubit is an angular integral over the emission
direction, with a vertical matrix element that is logarithmic in the phonon
wavenumber. The log form is the small-q asymptote; the exact kernel averages
the profile function u_p over the vertical ground state and is available as an
alternative mode.
"""
from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from .constants import ELECTRON_MASS, HBAR, NEON, Material
from .numerics import DEFAULT_SPEC, ConvergenceError, QuadratureSpec, integrate_adaptive, u_p
from .surface import BoundState, LateralTrap

# inset keeping the log kernel finite at the gamma = 1 endpoint
ENDPOINT_INSET = 1e-12

# composite Gauss-Legendre grid for the vertical average, s in [0, 40]
# (weight s^2 exp(-2s) is below 2e-35 past the cutoff)
_S_PANELS = ((0.0, 1.0), (1.0, 3.0), (3.0, 8.0), (8.0, 18.0), (18.0, 40.0))
_GL32 = np.polynomial.legendre.leggauss(32)


def _vertical_grid() -> tuple[np.ndarray, np.ndarray]:
    xg, wg = _GL32
    nodes, weights = [], []
    for lo, hi in _S_PANELS:
        h = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + h * xg)
        weights.append(h * wg)
    return np.concatenate(nodes), np.concatenate(weights)


_S_NODES, _S_WEIGHTS = _vertical_grid()
_S_DENSITY = 4.0 * _S_NODES ** 2 * np.exp(-2.0 * _S_NODES) * _S_WEIGHTS


class KernelMode(enum.Enum):
    """Vertical-kernel treatment for the displacement channel."""

    LOG_APPROX = "approx"
    EXACT = "exact"


def u_p_average(eta) -> np.ndarray:
    """Ground-state average 4 int_0^inf s^2 e^(-2s) u_p(eta s) ds.

    For eta << 1 this approaches (1/2)(ln(2/eta) - gamma_E + ...), i.e. the
    -ln(eta)/2 kernel of the logarithmic approximation plus a positive
    constant. Vectorized over eta > 0.
    """
    arr = np.atleast_1d(np.asarray(eta, dtype=float))
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("u_p_average requires eta > 0")
    vals = u_p(np.outer(arr, _S_NODES)) @ _S_DENSITY
    if np.isscalar(eta) or np.asarray(eta).ndim == 0:
        return float(vals[0])
    return vals


def matrix_element_up(q, state: BoundState, mode: KernelMode = KernelMode.LOG_APPROX):
    """Squared vertical matrix element of the displacement coupling.

    Returns Lambda^2 q^4 k(q r_B)^2 where the kernel k is -ln(q r_B)/2 in
    LOG_APPROX mode (valid and positive only for q r_B < 1, ValueError
    beyond) and the ground-state average of u_p in EXACT mode. On
    q r_B in [1e-3, 0.3] the exact form dominates the approximation.
    """
    q_arr = np.asarray(q, dtype=float)
    if q_arr.size and not np.all(q_arr > 0.0):
        raise ValueError("matrix_element_up requires q > 0")
    eta = q_arr * state.bohr_radius
    if mode is KernelMode.LOG_APPROX:
        if np.any(eta >= 1.0):
            raise ValueError("logarithmic kernel requires q r_B < 1")
        kernel = -0.5 * np.log(eta)
    elif mode is KernelMode.EXACT:
        kernel = u_p_average(eta)
    else:
        raise ValueError(f"unknown kernel mode: {mode!r}")
    out = state.lam ** 2 * q_arr ** 4 * np.asarray(kernel) ** 2
    if np.isscalar(q) or q_arr.ndim == 0:
        return float(out)
    return out


def log_kernel_limit_ghz(material: Material = NEON, state: BoundState | None = None) -> float:
    """Trap frequency, GHz, at which alpha = (w0/c) r_B reaches 1.

    The logarithmic kernel -ln(q r_B)/2 holds only for q r_B < 1; a phonon
    emitted at w0 reaches q r_B = alpha, so LOG_APPROX needs f0 below this.
    """
    if state is None:
        state = BoundState.for_material(material)
    return material.sound_speed / (2e9 * np.pi * state.bohr_radius)


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
    if trap.omega_x != trap.omega_y:
        raise ValueError("displacement rate assumes an isotropic trap")
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
