"""Photon decay channels: free-space dipole emission and cavity Purcell loss.

Rates are angular (rad/s convention for cavity inputs, ordinary s^-1 for the
returned decay rates, which are inverse lifetimes).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import HBAR, SPEED_OF_LIGHT, TWO_PI
from .surface import LateralTrap


class DispersiveLimitWarning(UserWarning):
    """Cavity parameters stray outside the dispersive regime g/|Delta| <= 0.1."""


def gamma_vacuum(trap: LateralTrap) -> float:
    """Free-space spontaneous emission rate of the x transition, s^-1.

    gamma = 4 d^2 omega^3 / (3 hbar c^3) with d the transition dipole. With
    d^2 = e^2 a_x^2 / 2 and a_x^2 = hbar/(m omega) this collapses to
    2 e^2 omega^2 / (3 m_e c^3), scaling as omega^2.
    """
    d = trap.transition_dipole
    w = trap.omega_x
    return 4.0 * d * d * w ** 3 / (3.0 * HBAR * SPEED_OF_LIGHT ** 3)


@dataclass(frozen=True)
class CavityParams:
    """Dispersive electron-resonator coupling.

    Attributes
    ----------
    g : float
        Coupling rate, rad/s.
    kappa : float
        Resonator linewidth, rad/s.
    detuning : float
        Qubit-resonator detuning omega_x - omega_r, rad/s. Nonzero.
    """

    g: float
    kappa: float
    detuning: float

    def __post_init__(self) -> None:
        for name in ("g", "kappa", "detuning"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"cavity {name} must be finite")
        if self.g < 0.0 or self.kappa < 0.0:
            raise ValueError("g and kappa must be non-negative")
        if self.detuning == 0.0:
            raise ValueError("detuning must be nonzero in the dispersive limit")

    @classmethod
    def from_mhz(cls, g_mhz: float, kappa_mhz: float, detuning_mhz: float) -> "CavityParams":
        """Build from ordinary frequencies in MHz (g/2pi etc.)."""
        scale = TWO_PI * 1e6
        return cls(g=g_mhz * scale, kappa=kappa_mhz * scale, detuning=detuning_mhz * scale)


def gamma_purcell(cavity: CavityParams) -> float:
    """Purcell decay rate g^2 kappa / detuning^2 through the resonator, s^-1.

    Warns (does not fail) when g/|detuning| > 0.1, where the dispersive
    expression stops being trustworthy.
    """
    ratio = cavity.g / abs(cavity.detuning)
    if ratio > 0.1:
        warnings.warn(
            f"g/|detuning| = {ratio:.3f} exceeds 0.1; dispersive Purcell "
            "formula is outside its validity range",
            DispersiveLimitWarning,
            stacklevel=2,
        )
    return cavity.g ** 2 * cavity.kappa / cavity.detuning ** 2
