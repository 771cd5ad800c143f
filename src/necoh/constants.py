"""Physical constants and material data, CGS-Gaussian units.

Everything internal to the package is CGS: erg, g, cm, s, statC, K. The CLI
converts to and from lab units (GHz, mK, nm) at the boundary. Constant values
follow CODATA 2018.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018, exact where the SI defines them so
SPEED_OF_LIGHT = 2.99792458e10  # cm/s
ELEMENTARY_CHARGE = 1.602176634e-19 * 2.99792458e9  # statC
ELECTRON_MASS = 9.1093837015e-28  # g
HBAR = 1.054571817e-27  # erg s
BOLTZMANN = 1.380649e-16  # erg/K

TWO_PI = 6.283185307179586


def ghz_to_rad_s(f_ghz: float) -> float:
    """Angular frequency in rad/s for an ordinary frequency in GHz."""
    return TWO_PI * (f_ghz * 1e9)


def mk_to_kelvin(t_mk: float) -> float:
    return t_mk * 1e-3


@dataclass(frozen=True)
class Material:
    """Bulk acoustic medium.

    Parameters
    ----------
    name : str
        Identifier used in reports.
    sound_speed : float
        Longitudinal sound speed, cm/s.
    epsilon : float or None
        Static dielectric constant, if the medium binds the electron.
    density : float or None
        Mass density in g/cm^3, if phonon rates are evaluated in it.
    """

    name: str
    sound_speed: float
    epsilon: float | None = None
    density: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.sound_speed < math.inf:
            raise ValueError(f"{self.name}: sound_speed must be positive and finite: "
                             f"got {self.sound_speed!r}")
        if self.density is not None and not 0.0 < self.density < math.inf:
            raise ValueError(f"{self.name}: density must be positive and finite: "
                             f"got {self.density!r}")
        if self.epsilon is not None and not math.isfinite(self.epsilon):
            raise ValueError(f"{self.name}: epsilon must be finite: got {self.epsilon!r}")


NEON = Material(name="neon", sound_speed=1.133e5, epsilon=1.244, density=1.444)
SILICON = Material(name="silicon", sound_speed=8.48e5)
SAPPHIRE = Material(name="sapphire", sound_speed=1.135e6)

SUBSTRATES = (SILICON, SAPPHIRE)
