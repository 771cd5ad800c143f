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

    def level_energy(self, n: int) -> float:
        """Binding energy -R/n^2 of vertical level n >= 1, erg."""
        if n < 1:
            raise ValueError("level index starts at 1")
        return -self.rydberg / (n * n)

    def ground_density(self, z) -> np.ndarray:
        """Ground-state probability density |psi_1(z)|^2, 1/cm.

        (4/r_B)(z/r_B)^2 exp(-2 z / r_B) for z >= 0, normalized to one.
        """
        z = np.asarray(z, dtype=float)
        s = z / self.bohr_radius
        return np.where(z >= 0.0, 4.0 / self.bohr_radius * s * s * np.exp(-2.0 * s), 0.0)

    @property
    def mean_height(self) -> float:
        """<z> in the ground state, 1.5 r_B."""
        return 1.5 * self.bohr_radius

    @property
    def most_probable_height(self) -> float:
        """argmax of |psi_1|^2, exactly r_B."""
        return self.bohr_radius


@dataclass(frozen=True)
class LateralTrap:
    """Harmonic in-plane confinement with the qubit on the x levels.

    Attributes
    ----------
    omega_x, omega_y : float
        Angular trap frequencies, rad/s. The transition of interest is
        0 -> 1 along x.
    """

    omega_x: float
    omega_y: float

    def __post_init__(self) -> None:
        if not (0.0 < self.omega_x < math.inf and 0.0 < self.omega_y < math.inf):
            raise ValueError("trap frequencies must be positive and finite")

    @classmethod
    def isotropic_ghz(cls, f0_ghz: float) -> "LateralTrap":
        w = ghz_to_rad_s(f0_ghz)
        return cls(omega_x=w, omega_y=w)

    @property
    def length_x(self) -> float:
        """Oscillator length sqrt(hbar / (m_e omega_x)), cm."""
        return float(np.sqrt(HBAR / (ELECTRON_MASS * self.omega_x)))

    @property
    def length_y(self) -> float:
        return float(np.sqrt(HBAR / (ELECTRON_MASS * self.omega_y)))

    @property
    def transition_dipole(self) -> float:
        """|<0| e x |1>| = e a_x / sqrt(2), statC cm."""
        return ELEMENTARY_CHARGE * self.length_x / np.sqrt(2.0)


def relaxation_form_factor(q_x, q_y, trap: LateralTrap) -> np.ndarray:
    """|<0_x 0_y| exp(i q.r) |1_x 0_y>|^2 for the harmonic trap.

    Equals (1/2)(q_x a_x)^2 exp(-(q_x^2 a_x^2 + q_y^2 a_y^2)/2). Vanishes
    quadratically at q -> 0, which is what shuts off one-phonon dephasing.
    """
    qx = np.asarray(q_x, dtype=float) * trap.length_x
    qy = np.asarray(q_y, dtype=float) * trap.length_y
    return 0.5 * qx * qx * np.exp(-0.5 * (qx * qx + qy * qy))


def dephasing_form_factor(q_x, q_y, trap: LateralTrap) -> np.ndarray:
    """|<1| exp(i q.r) |1> - <0| exp(i q.r) |0>|^2 for the x levels.

    Equals (1/4)(q_x a_x)^4 exp(-(q_x^2 a_x^2 + q_y^2 a_y^2)/2), i.e. the
    relaxation form factor times (q_x a_x)^2 / 2. Quartic at small q.
    """
    qx = np.asarray(q_x, dtype=float) * trap.length_x
    qy = np.asarray(q_y, dtype=float) * trap.length_y
    return 0.25 * qx ** 4 * np.exp(-0.5 * (qx * qx + qy * qy))
