"""Phonon emission through dielectric-constant modulation.

A longitudinal phonon modulates the density of the dielectric, hence its
dielectric constant (by (eps - 1) drho/rho to first order), hence the image
potential. This couples to the lateral qubit through an in-plane momentum
kick. The reduced rate integral runs over the emission direction cosine g with
an inner double integral D over the vertical coordinates of the electron (s)
and the polarization source (s'), oscillatory in s'. The in-plane projection
sqrt(1 - g^2) sets the oscillation scale of the sine in D; see ``d_integral``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ELECTRON_MASS, NEON, SUBSTRATES, Material
from .numerics import (DEFAULT_SPEC, ConvergenceError, QuadratureSpec,
                       integrate_adaptive, integrate_oscillatory_batch)
from .surface import BoundState, LateralTrap, phonon_kinematics

S_CUTOFF = 40.0  # e^(-2s) below 2e-35 past this
SUPPRESSION_THRESHOLD = 2.0


def d_integral(b: float, spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Inner double integral of the reduced modulation rate.

    D(b) = int_0^inf ds int_0^inf ds' s^2/(s+s')^2 sin(b s') e^(-2s)

    evaluated with the oscillatory semi-infinite scheme in s' (batched over
    the outer Gauss-Kronrod nodes in s) and the s integral cut at 40. The
    batch sees only the s'-dependent factor 1/(s+s')^2; the inner values and
    their error estimates are scaled by s^2 e^(-2s) per node afterwards. For
    b -> 0, D(b) -> (b/4)(ln(2/b) - 3/2). With the full weight K1(a(s+s'))
    in place of its 1/(a(s+s')) asymptote, the squared kernel F of in-plane
    wavenumber a = q_par r_B tends to 16 D(b)^2 / a^2 as a -> 0.
    """
    if b < 0.0:
        raise ValueError("b must be >= 0")
    if b == 0.0:
        return 0.0, 0.0
    inner_err = [0.0]

    def outer(s: np.ndarray) -> np.ndarray:
        def env(x: np.ndarray) -> np.ndarray:
            # reciprocal first: (s + x)^2 overflows on the tail at tiny b
            r = 1.0 / (s[:, None] + x[None, :])
            return r * r

        vals, errs = integrate_oscillatory_batch(env, b)
        scale = s * s * np.exp(-2.0 * s)
        inner_err[0] = max(inner_err[0], float(np.max(errs * scale)))
        return vals * scale

    val, err = integrate_adaptive(outer, 0.0, S_CUTOFF, spec)
    return val, err + S_CUTOFF * inner_err[0]


def gamma_modulation(trap: LateralTrap, material: Material = NEON,
                     state: BoundState | None = None,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Modulation-channel relaxation rate, s^-1, with its error estimate.

    gamma = [8 R^2 w0^4 / (pi m_e rho c^7)]
            * int_0^1 dg (1-g^2) exp(-beta (1-g^2)) D(alpha sqrt(1-g^2))^2

    with alpha = (w0/c) r_B, beta = hbar w0 / (2 m_e c^2) and D the inner
    double integral, whose sine scale carries the in-plane projection
    sqrt(1 - g^2) of the phonon. f0 at the vertical 1 -> 2 spacing raises
    ValueError; a ConvergenceError names the channel and the trap frequency.
    """
    state, alpha, beta = phonon_kinematics(trap, material, state)
    w0 = trap.omega_x
    c = material.sound_speed
    pref = (8.0 * state.rydberg ** 2 * w0 ** 4
            / (np.pi * ELECTRON_MASS * material.density * c ** 7))
    inner_spec = QuadratureSpec(rel_tol=max(1e-10, 0.01 * spec.rel_tol))
    inner_err = [0.0]

    def integrand(g: np.ndarray) -> np.ndarray:
        u2 = 1.0 - g * g
        out = np.empty_like(g)
        for i, u2_i in enumerate(u2):
            d, derr = d_integral(alpha * np.sqrt(u2_i), inner_spec)
            out[i] = u2_i * np.exp(-beta * u2_i) * d * d
            inner_err[0] = max(inner_err[0], 2.0 * abs(d) * derr)
        return out

    try:
        val, err = integrate_adaptive(integrand, 0.0, 1.0, spec)
    except ConvergenceError as exc:
        raise exc.within(f"modulation channel at {w0 / (2e9 * np.pi):.3f} GHz") from exc
    return pref * val, pref * (err + inner_err[0])


@dataclass(frozen=True)
class SubstrateDiagnostics:
    """Wavenumber matching between the trapped electron and substrate phonons.

    The electron's in-plane wavenumber content is ~1/a_x; a phonon at the
    qubit frequency in the substrate carries w0/c_substrate. When their ratio
    k_e/k_ph exceeds ~2 the form-factor overlap is negligible and direct
    emission into the substrate is suppressed.
    """

    material: str
    phonon_wavenumber: float  # 1/cm
    electron_wavenumber: float  # 1/cm

    @property
    def wavenumber_ratio(self) -> float:
        return self.electron_wavenumber / self.phonon_wavenumber

    @property
    def suppressed(self) -> bool:
        return self.wavenumber_ratio > SUPPRESSION_THRESHOLD


def substrate_suppression(trap: LateralTrap) -> tuple[SubstrateDiagnostics, ...]:
    """Wavenumber-mismatch diagnostics for phonon leakage into each substrate."""
    k_e = 1.0 / trap.length_x
    return tuple(SubstrateDiagnostics(sub.name, trap.omega_x / sub.sound_speed, k_e)
                 for sub in SUBSTRATES)
