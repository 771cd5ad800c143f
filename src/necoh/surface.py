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
    if epsilon <= 1.0:
        raise ValueError("image binding needs epsilon > 1")
    return ELEMENTARY_CHARGE ** 2 / 4.0 * (epsilon - 1.0) / (epsilon + 1.0)


@dataclass(frozen=True)
class BoundState:
    """Vertical binding parameters of the image-potential ground state.

    Attributes
    ----------
    lam : float
        Image coupling Lambda, erg cm.
    bohr_radius : float
        Effective Bohr radius r_B = hbar^2 / (Lambda m_e), cm.
    rydberg : float
        Effective Rydberg R = hbar^2 / (2 m_e r_B^2), erg. Level n binds
        with energy -R/n^2.

    The ground-state density (4/r_B)(z/r_B)^2 e^(-2z/r_B), peaked at r_B with
    <z> = 1.5 r_B, is the weight 4 s^2 e^(-2s) of both phonon channels.
    """

    lam: float
    bohr_radius: float
    rydberg: float

    @classmethod
    def for_material(cls, material: Material = NEON) -> "BoundState":
        if material.epsilon is None:
            raise ValueError(f"{material.name} has no dielectric constant set")
        lam = image_coupling(material.epsilon)
        r_b = HBAR ** 2 / (lam * ELECTRON_MASS)
        ryd = HBAR ** 2 / (2.0 * ELECTRON_MASS * r_b ** 2)
        return cls(lam=lam, bohr_radius=r_b, rydberg=ryd)


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
            raise ValueError("trap frequency must be positive and finite")

    @classmethod
    def isotropic_ghz(cls, f0_ghz: float) -> "LateralTrap":
        return cls(omega_x=ghz_to_rad_s(f0_ghz))

    @property
    def length_x(self) -> float:
        """Oscillator length sqrt(hbar / (m_e omega_x)), cm."""
        return float(np.sqrt(HBAR / (ELECTRON_MASS * self.omega_x)))

    @property
    def transition_dipole(self) -> float:
        """|<0| e x |1>| = e a_x / sqrt(2), statC cm."""
        return ELEMENTARY_CHARGE * self.length_x / np.sqrt(2.0)
