"""Photon decay channels: free-space dipole emission and cavity Purcell loss.

Rates are angular (rad/s convention for cavity inputs, ordinary s^-1 for the
returned decay rates, which are inverse lifetimes).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import ELECTRON_MASS, ELEMENTARY_CHARGE, SPEED_OF_LIGHT, TWO_PI
from .surface import LateralTrap


class DispersiveLimitWarning(UserWarning):
    """Cavity parameters stray outside the dispersive regime g/|Delta| <= 0.1."""


def gamma_vacuum(trap: LateralTrap) -> float:
    """Free-space spontaneous emission rate of the x transition, s^-1.

    gamma = 4 d^2 omega^3 / (3 hbar c^3) with d = e a_x / sqrt(2) the
    transition dipole and a_x^2 = hbar/(m omega), which collapses to
    2 e^2 omega^2 / (3 m_e c^3). Products overflow to inf where ** raises.
    """
    e, w, c = ELEMENTARY_CHARGE, trap.omega_x, SPEED_OF_LIGHT
    return 2.0 * e * e * w * w / (3.0 * ELECTRON_MASS * (c * c * c))


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
        # each refusal names the value in rad/s, where a finite MHz value can
        # have overflowed
        for name in ("g", "kappa", "detuning"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"cavity {name} must be finite: got {value:.6g} rad/s")
        for name in ("g", "kappa"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"g and kappa must be non-negative: "
                                 f"got {name} = {value:.6g} rad/s")
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
    expression stops being trustworthy. As (g/|detuning|)^2 kappa, the rate
    overflows to inf or underflows to 0 where a float power would raise.
    """
    ratio = cavity.g / abs(cavity.detuning)
    if ratio > 0.1:
        warnings.warn(
            f"g/|detuning| = {ratio:.3f} exceeds 0.1; dispersive Purcell "
            "formula is outside its validity range",
            DispersiveLimitWarning,
            stacklevel=2,
        )
    return ratio * ratio * cavity.kappa
