"""Vertical surface bound state and lateral trap of an electron on a dielectric.

An electron above a dielectric half-space is bound by its image charge. The
attraction is -Lambda/z with Lambda set by the dielectric contrast, giving a
hydrogen-like ladder with its own effective Bohr radius and Rydberg energy.
Laterally the electron sits in an electrostatic trap, harmonic to the accuracy
needed here, whose two lowest levels form the qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR, NEON,
                        Material, ghz_to_rad_s)


def image_coupling(epsilon: float) -> float:
    """Image-potential strength Lambda = (e^2/4)(eps-1)/(eps+1), erg cm."""
    if not epsilon > 1.0:
        raise ValueError("image binding needs epsilon > 1")
    return ELEMENTARY_CHARGE ** 2 / 4.0 * (epsilon - 1.0) / (epsilon + 1.0)


@dataclass(frozen=True)
class BoundState:
    """Vertical binding of the image-potential ground state, set by Lambda alone.

    Attributes
    ----------
    lam : float
        Image coupling Lambda, erg cm, finite and > 0 (else ValueError).

    The ground-state density (4/r_B)(z/r_B)^2 e^(-2z/r_B), peaked at r_B with
    <z> = 1.5 r_B, is the weight 4 s^2 e^(-2s) of both phonon channels.
    """

    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"image coupling must be positive and finite: "
                             f"got {self.lam:.6g} erg cm")

    @classmethod
    def for_material(cls, material: Material = NEON) -> "BoundState":
        if material.epsilon is None:
            raise ValueError(f"{material.name} has no dielectric constant set")
        return cls(lam=image_coupling(material.epsilon))

    @property
    def bohr_radius(self) -> float:
        """Effective Bohr radius r_B = hbar^2 / (Lambda m_e), cm."""
        return HBAR ** 2 / (self.lam * ELECTRON_MASS)

    @property
    def rydberg(self) -> float:
        """Effective Rydberg R = hbar^2 / (2 m_e r_B^2), erg; level n binds at -R/n^2."""
        return HBAR ** 2 / (2.0 * ELECTRON_MASS * self.bohr_radius ** 2)


@dataclass(frozen=True)
class LateralTrap:
    """Isotropic harmonic in-plane confinement with the qubit on the x levels.

    Attributes
    ----------
    omega_x : float
        Angular trap frequency, rad/s, the same along x and y. The transition
        of interest is 0 -> 1 along x.
    """

    omega_x: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_x < math.inf:
            raise ValueError(f"trap frequency must be positive and finite: "
                             f"got {self.omega_x:.6g} rad/s")

    @classmethod
    def isotropic_ghz(cls, f0_ghz: float) -> "LateralTrap":
        return cls(omega_x=ghz_to_rad_s(f0_ghz))

    @property
    def length_x(self) -> float:
        """Oscillator length sqrt(hbar / (m_e omega_x)), cm."""
        return float(np.sqrt(HBAR / (ELECTRON_MASS * self.omega_x)))


def phonon_kinematics(trap: LateralTrap, material: Material = NEON,
                      state: BoundState | None = None) -> tuple[BoundState, float, float]:
    """(state, alpha, beta) of a phonon emitted at the trap frequency w0.

    alpha = (w0/c) r_B and beta = hbar w0 / (2 m_e c^2), with c the sound
    speed; ``state`` defaults to the material's own. Both phonon channels
    use these. ValueError refuses a material without a density and any f0
    from the vertical 1 -> 2 spacing 3R/(4h) of ``state`` up (~1823 GHz in
    neon), where one lateral quantum excites the vertical motion, which no
    channel includes; the message states that ceiling rounded down.
    """
    if material.density is None:
        raise ValueError(f"{material.name} has no density set")
    if state is None:
        state = BoundState.for_material(material)
    w0, c = trap.omega_x, material.sound_speed
    f0, limit = w0 / (2e9 * math.pi), 0.75 * state.rydberg / (2e9 * math.pi * HBAR)
    if f0 >= limit:
        raise ValueError(f"f0 must be below {math.floor(10.0 * limit) / 10.0:.1f} GHz, the "
                         f"vertical 1 -> 2 spacing 3R/(4h), where the model holds: "
                         f"got {f0:.6g} GHz")
    return state, w0 / c * state.bohr_radius, HBAR * w0 / (2.0 * ELECTRON_MASS * c * c)
