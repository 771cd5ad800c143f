"""Per-channel decay rates assembled into coherence reports.

T1 of a channel is the inverse of its rate. With the pure-dephasing rate
identically zero for one-phonon processes, T2 = 1/(gamma/2 + gamma_phi)
collapses to exactly twice T1; the doubling is done literally (T2 = 2*T1) so
the identity holds bit for bit.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import BOLTZMANN, HBAR, mk_to_kelvin
from .displacement import KernelMode, gamma_displacement
from .modulation import SubstrateDiagnostics, gamma_modulation, substrate_suppression
from .numerics import DEFAULT_SPEC, QuadratureSpec
from .photon import CavityParams, gamma_purcell, gamma_vacuum
from .surface import LateralTrap

CHANNEL_VACUUM = "vacuum"
CHANNEL_DISPLACEMENT = "displacement"
CHANNEL_MODULATION = "modulation"
CHANNEL_CAVITY = "cavity"

# bare one-phonon rates, (trap, kernel, spec) -> (gamma, error), in report
# order. The rate functions are looked up by module-global name at call time,
# so rebinding them here (a monkeypatch, a tracer) reaches every caller.
PHONON_RATES = {
    CHANNEL_DISPLACEMENT:
        lambda trap, kernel, spec: gamma_displacement(trap, mode=kernel, spec=spec),
    CHANNEL_MODULATION: lambda trap, kernel, spec: gamma_modulation(trap, spec=spec),
}


def thermal_occupation(omega: float, temperature_k: float) -> float:
    """Bose occupation of a mode at angular frequency omega, rad/s.

    Returns exactly 0.0 at T = 0, and also where k T underflows to zero
    (T below ~2e-308 K), its T -> 0 limit. At 10 mK and 6.4 GHz the
    occupation is ~5e-14, numerically invisible in the rates; deep in the
    tail it underflows smoothly to 0.0. Where hbar omega / k T underflows
    instead, the occupation is not finite and ValueError names omega and T.
    """
    if not 0.0 <= temperature_k < math.inf:
        raise ValueError("temperature must be finite and >= 0")
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    kt = BOLTZMANN * temperature_k
    if kt == 0.0:
        return 0.0
    x = HBAR * omega / kt
    if x > 700.0:
        # expm1 overflows past x ~ 709.8 (above ~148 GHz at 10 mK); here
        # 1/(e^x - 1) equals e^-x to double precision
        return math.exp(-x)
    n = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if not math.isfinite(n):
        raise ValueError(f"thermal occupation is not finite at omega = {omega:.6g} rad/s, "
                         f"T = {temperature_k:.6g} K")
    return n


def gamma_phi_one_phonon(trap: LateralTrap, temperature_k: float = 0.0) -> float:
    """One-phonon pure-dephasing rate: exactly zero.

    For the harmonic trap with oscillator lengths a_x, a_y and phonon
    in-plane momentum q = (q_x, q_y), the relaxation form factor
    |<0_x 0_y| e^(iq.r) |1_x 0_y>|^2 is (1/2)(q_x a_x)^2 e^(-q^2 a^2 / 2)
    and the dephasing form factor |<1|e^(iq.r)|1> - <0|e^(iq.r)|0>|^2 is
    (1/4)(q_x a_x)^4 e^(-q^2 a^2 / 2), with q^2 a^2 = q_x^2 a_x^2 +
    q_y^2 a_y^2. An elastic one-phonon process must conserve energy, which
    pins the phonon at q -> 0, where the quartic factor vanishes; so the
    golden-rule rate is identically zero at any temperature.
    """
    if temperature_k < 0.0:
        raise ValueError("temperature must be >= 0")
    return 0.0


@dataclass(frozen=True)
class ChannelRate:
    """One decay channel: rate gamma (s^-1), T1 = 1/gamma, T2 = 2*T1 (s)."""

    name: str
    gamma: float
    t1: float
    t2: float
    error_estimate: float = 0.0

    @classmethod
    def from_gamma(cls, name: str, gamma: float, error_estimate: float = 0.0
                   ) -> "ChannelRate":
        if not math.isfinite(gamma):
            raise ValueError(f"non-finite rate for channel {name}: {gamma!r}")
        if gamma < 0.0:
            raise ValueError(f"negative rate for channel {name}")
        t1 = math.inf if gamma == 0.0 else 1.0 / gamma
        return cls(name=name, gamma=gamma, t1=t1, t2=2.0 * t1,
                   error_estimate=error_estimate)


@dataclass(frozen=True)
class CoherenceReport:
    """All channels of one operating point, plus diagnostics."""

    f0_ghz: float
    temperature_mk: float
    channels: tuple[ChannelRate, ...]
    gamma_phi: float
    occupation: float
    substrates: tuple[SubstrateDiagnostics, ...]

    def channel(self, name: str) -> ChannelRate:
        for ch in self.channels:
            if ch.name == name:
                return ch
        raise KeyError(f"no channel named {name!r}")

    @property
    def total_gamma(self) -> float:
        return sum(ch.gamma for ch in self.channels)

    @property
    def total_t1(self) -> float:
        g = self.total_gamma
        return math.inf if g == 0.0 else 1.0 / g

    @property
    def total_t2(self) -> float:
        return 2.0 * self.total_t1


def build_report(f0_ghz: float, temperature_mk: float = 10.0,
                 cavity: CavityParams | None = None,
                 kernel: KernelMode = KernelMode.LOG_APPROX,
                 spec: QuadratureSpec = DEFAULT_SPEC) -> CoherenceReport:
    """Evaluate every channel at one trap frequency.

    Phonon channels carry the stimulated-emission factor (1 + n) with n the
    thermal occupation at the qubit frequency; photon channels are evaluated
    at zero occupation, where the closed forms below hold exactly. A bare
    vacuum or phonon rate below the smallest normal float (tiny f0, e.g.
    1e-52 GHz) raises ValueError naming the channel and f0; the cavity rate
    is 0 at g = 0.
    """
    if f0_ghz <= 0.0:
        raise ValueError("f0_ghz must be positive")
    trap = LateralTrap.isotropic_ghz(f0_ghz)
    t_k = mk_to_kelvin(temperature_mk)
    n_q = thermal_occupation(trap.omega_x, t_k)
    stim = 1.0 + n_q

    def positive(name: str, gamma: float, err: float = 0.0, factor: float = 1.0
                 ) -> ChannelRate:
        # these rates are positive at every f0 > 0, so a bare rate that is 0
        # or subnormal has lost its digits to underflow (the factor 1 + n
        # would hide that); refused before a later channel runs (the
        # modulation envelope overflows at such f0)
        if gamma < sys.float_info.min:
            raise ValueError(f"{name} rate underflows at f0 = {f0_ghz:g} GHz")
        return ChannelRate.from_gamma(name, factor * gamma, factor * err)

    channels = [positive(CHANNEL_VACUUM, gamma_vacuum(trap))]
    for name, rate in PHONON_RATES.items():
        gamma, err = rate(trap, kernel, spec)
        channels.append(positive(name, gamma, err, stim))
    if cavity is not None:
        channels.append(ChannelRate.from_gamma(CHANNEL_CAVITY, gamma_purcell(cavity)))

    return CoherenceReport(
        f0_ghz=f0_ghz,
        temperature_mk=temperature_mk,
        channels=tuple(channels),
        gamma_phi=gamma_phi_one_phonon(trap, temperature_k=t_k),
        occupation=n_q,
        substrates=substrate_suppression(trap),
    )


def sweep(f0_ghz_values, temperature_mk: float = 10.0,
          cavity: CavityParams | None = None,
          kernel: KernelMode = KernelMode.LOG_APPROX,
          spec: QuadratureSpec = DEFAULT_SPEC) -> list[CoherenceReport]:
    """Reports for each frequency, in the order given."""
    return [build_report(f0, temperature_mk=temperature_mk, cavity=cavity,
                         kernel=kernel, spec=spec)
            for f0 in f0_ghz_values]
