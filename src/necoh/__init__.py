"""Relaxation and coherence of an electron's lateral motional states on solid neon.

The package computes the decay channels of the 0 -> 1 transition of the
in-plane motional qubit of a single electron bound to a solid neon surface:
free-space and cavity photon emission, and one-phonon emission through
interface displacement and dielectric modulation. One-phonon pure dephasing
vanishes identically, so every channel obeys T2 = 2 T1.
"""
from __future__ import annotations

from .constants import NEON, SAPPHIRE, SILICON, Material
from .displacement import KernelMode, gamma_displacement, u_p_average
from .modulation import (SubstrateDiagnostics, d_integral, gamma_modulation,
                         substrate_suppression)
from .numerics import ConvergenceError, QuadratureSpec, integrate_adaptive
from .photon import (CavityParams, DispersiveLimitWarning, gamma_purcell,
                     gamma_vacuum)
from .report import (ChannelRate, CoherenceReport, build_report,
                     gamma_phi_one_phonon, sweep, thermal_occupation)
from .surface import BoundState, LateralTrap

__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "CavityParams",
    "ChannelRate",
    "CoherenceReport",
    "ConvergenceError",
    "DispersiveLimitWarning",
    "KernelMode",
    "LateralTrap",
    "Material",
    "NEON",
    "QuadratureSpec",
    "SAPPHIRE",
    "SILICON",
    "SubstrateDiagnostics",
    "build_report",
    "d_integral",
    "gamma_displacement",
    "gamma_modulation",
    "gamma_phi_one_phonon",
    "gamma_purcell",
    "gamma_vacuum",
    "integrate_adaptive",
    "substrate_suppression",
    "sweep",
    "thermal_occupation",
    "u_p_average",
]
