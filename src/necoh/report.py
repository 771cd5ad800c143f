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

from .constants import BOLTZMANN, HBAR, ghz_to_rad_s, mk_to_kelvin
from .displacement import KernelMode, gamma_displacement, kernel_kinematics
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
        raise ValueError(f"temperature must be finite and >= 0: got {temperature_k:.6g} K")
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite: got {omega:.6g} rad/s")
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


@dataclass(frozen=True)
class ChannelRate:
    """One decay channel: rate gamma (s^-1), T1 = 1/gamma, T2 = 2*T1 (s).

    A non-finite or negative gamma or error estimate raises ValueError naming
    the channel.
    """

    name: str
    gamma: float
    error_estimate: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ValueError(f"non-finite rate for channel {self.name}: {self.gamma!r}")
        if self.gamma < 0.0:
            raise ValueError(f"negative rate for channel {self.name}: got {self.gamma!r}")
        if not 0.0 <= self.error_estimate < math.inf:
            raise ValueError(f"error estimate for channel {self.name} must be finite "
                             f"and >= 0: got {self.error_estimate!r}")

    @property
    def t1(self) -> float:
        return math.inf if self.gamma == 0.0 else 1.0 / self.gamma

    @property
    def t2(self) -> float:
        return 2.0 * self.t1


@dataclass(frozen=True)
class BareRates:
    """A trap frequency (GHz) and every channel's zero-occupation rate there, in report order."""

    f0_ghz: float
    channels: tuple[ChannelRate, ...]


@dataclass(frozen=True)
class CoherenceReport:
    """One temperature and the bare (T = 0) rates of one trap frequency.

    The rest is derived, ``f0_ghz`` from ``bare``, so ``replace(rep,
    temperature_mk=t)`` moves a report to another T with no rate call, and no
    report can pair its rates with another f0. ``channels`` multiplies each
    phonon rate (``PHONON_RATES``) and its error by 1 + n, n the thermal
    ``occupation`` at the qubit frequency: a phonon T1 is the emission
    lifetime 1/(gamma (1 + n)), not the two-level 1/(gamma (1 + 2n)), which
    adds the absorption rate gamma n (36% apart at 300 mK and 6.4 GHz, 5e-14
    at 10 mK). Photon channels pass through at zero occupation, where
    their closed forms hold exactly. A temperature of -0.0 is stored as 0.0
    however the report is made, so no output prints a negative zero.
    ValueError refuses a temperature that is not finite and >= 0 and rates
    whose total overflows.
    """

    bare: BareRates
    temperature_mk: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "temperature_mk", self.temperature_mk + 0.0)
        if not math.isfinite(sum(ch.gamma for ch in self.channels)):
            raise ValueError(f"total rate is not finite at f0 = {self.f0_ghz:g} GHz")

    @property
    def f0_ghz(self) -> float:
        return self.bare.f0_ghz

    @property
    def occupation(self) -> float:
        return thermal_occupation(ghz_to_rad_s(self.f0_ghz), mk_to_kelvin(self.temperature_mk))

    @property
    def channels(self) -> tuple[ChannelRate, ...]:
        stim = 1.0 + self.occupation
        return tuple(ChannelRate(ch.name, stim * ch.gamma, stim * ch.error_estimate)
                     if ch.name in PHONON_RATES else ch for ch in self.bare.channels)

    @property
    def gamma_phi(self) -> float:
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
        return 0.0

    @property
    def substrates(self) -> tuple[SubstrateDiagnostics, ...]:
        return substrate_suppression(LateralTrap.isotropic_ghz(self.f0_ghz))

    def channel(self, name: str) -> ChannelRate:
        for ch in self.channels:
            if ch.name == name:
                return ch
        raise KeyError(f"no channel named {name!r}")

    @property
    def total(self) -> ChannelRate:
        """All channels as one: the summed rates and error estimates."""
        return ChannelRate("total", sum(ch.gamma for ch in self.channels),
                           sum(ch.error_estimate for ch in self.channels))


def build_report(f0_ghz: float, temperature_mk: float = 10.0,
                 cavity: CavityParams | None = None,
                 kernel: KernelMode = KernelMode.LOG_APPROX,
                 spec: QuadratureSpec = DEFAULT_SPEC) -> CoherenceReport:
    """Evaluate every channel's bare rate at one trap frequency.

    A bare rate below the smallest normal float raises ValueError naming the
    channel and f0 (a vacuum or phonon rate at tiny f0, e.g. 1e-52 GHz; a
    cavity rate at g = 0, kappa = 0 or where (g/detuning)^2 kappa underflows), so no
    channel reports an infinite T1. ``LateralTrap`` and ``kernel_kinematics``
    refuse f0, ``thermal_occupation`` T before any rate runs, the closed-form
    vacuum and cavity rates are checked before the phonon quadratures, and
    ``CoherenceReport`` refuses a total that overflows."""
    trap = LateralTrap.isotropic_ghz(f0_ghz)
    kernel_kinematics(trap, kernel)
    thermal_occupation(trap.omega_x, mk_to_kelvin(temperature_mk))

    def positive(name: str, gamma: float, err: float = 0.0) -> ChannelRate:
        # positive at every f0 > 0 (the cavity's at g, kappa > 0), so a rate
        # that is 0 or subnormal has lost its digits to underflow; refused before
        # a later channel spends its time on a rate that underflows there as well
        if gamma < sys.float_info.min:
            raise ValueError(f"{name} rate underflows at f0 = {f0_ghz:g} GHz")
        return ChannelRate(name, gamma, err)

    vacuum = positive(CHANNEL_VACUUM, gamma_vacuum(trap))
    cavity_rate = () if cavity is None else (positive(CHANNEL_CAVITY, gamma_purcell(cavity)),)
    phonon = tuple(positive(name, *rate(trap, kernel, spec))
                   for name, rate in PHONON_RATES.items())
    return CoherenceReport(BareRates(f0_ghz, (vacuum, *phonon, *cavity_rate)), temperature_mk)


def sweep(f0_ghz_values, temperature_mk: float = 10.0,
          cavity: CavityParams | None = None,
          kernel: KernelMode = KernelMode.LOG_APPROX,
          spec: QuadratureSpec = DEFAULT_SPEC) -> list[CoherenceReport]:
    """Reports for each frequency, in the order given."""
    return [build_report(f0, temperature_mk=temperature_mk, cavity=cavity,
                         kernel=kernel, spec=spec)
            for f0 in f0_ghz_values]
