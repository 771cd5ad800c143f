"""Build the reference rates the benchmark checks necoh against.

Run from the repository root, once, whenever the op pools in
``workloads.py`` change:

    python3 perfbench/make_refs.py

It writes ``perfbench/refs.json``. Nothing here imports necoh. The physics
is written out again from its formulas, and every integral takes a route the
package does not:

- D(b) of the modulation channel comes from ``d_closed`` in
  ``tests/_oracles.py`` (sine/cosine integrals under ``scipy.integrate.quad``);
- the exact displacement kernel uses the Laplace transform of s K1(c s),
  which gives the ground-state average of u_p in closed form:
  4/(4 - eta^2) * (arccosh(2/eta)/sqrt(4 - eta^2) - 1/2);
- the angular integrals run through ``scipy.integrate.quad``.

Both closed forms are checked against a direct quadrature (with the
library-free K1 of ``tests/_oracles.py``) before anything is written.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
import time

import scipy.integrate

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _load_oracles():
    path = os.path.join(HERE, os.pardir, "tests", "_oracles.py")
    spec = importlib.util.spec_from_file_location("_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


oracles = _load_oracles()

# CGS; CODATA 2018 and the neon parameters of the source paper
CONSTANTS = {
    "speed_of_light": 2.99792458e10,  # cm/s
    "elementary_charge": 1.602176634e-19 * 2.99792458e9,  # statC
    "electron_mass": 9.1093837015e-28,  # g
    "hbar": 1.054571817e-27,  # erg s
    "boltzmann": 1.380649e-16,  # erg/K
    "neon_sound_speed": 1.133e5,  # cm/s
    "neon_epsilon": 1.244,
    "neon_density": 1.444,  # g/cm^3
}
C_LIGHT = CONSTANTS["speed_of_light"]
E_CHARGE = CONSTANTS["elementary_charge"]
M_E = CONSTANTS["electron_mass"]
HBAR = CONSTANTS["hbar"]
C_S = CONSTANTS["neon_sound_speed"]
RHO = CONSTANTS["neon_density"]
EPS = CONSTANTS["neon_epsilon"]

LAMBDA = E_CHARGE ** 2 / 4.0 * (EPS - 1.0) / (EPS + 1.0)
BOHR = HBAR ** 2 / (LAMBDA * M_E)
RYDBERG = HBAR ** 2 / (2.0 * M_E * BOHR ** 2)

QUAD_REL = 1e-13  # angular integrals
MOD_QUAD_REL = 1e-11  # modulation outer integral (d_closed itself is 1e-12)


def _omega(f0_ghz: float) -> float:
    return 2.0 * math.pi * f0_ghz * 1e9


def up_average(eta: float) -> float:
    """4 int_0^inf s^2 e^(-2s) (1 - eta s K1(eta s)) / (eta s)^2 ds, 0 < eta < 2."""
    s2 = 4.0 - eta * eta
    return 4.0 / s2 * (math.acosh(2.0 / eta) / math.sqrt(s2) - 0.5)


def _up_average_direct(eta: float) -> float:
    def f(s: float) -> float:
        x = eta * s
        return 4.0 * s * s * math.exp(-2.0 * s) * (1.0 - x * oracles.k1_reference(x)) / (x * x)
    return scipy.integrate.quad(f, 0.0, 80.0, limit=400, epsabs=0.0, epsrel=1e-12)[0]


def _d_rational(b: float) -> float:
    """D(b) as int_0^inf 4bt / ((1+t)^2 (4+b^2 t^2)^2) dt, a second route."""
    f = lambda t: 4.0 * b * t / ((1.0 + t) ** 2 * (4.0 + b * b * t * t) ** 2)
    return scipy.integrate.quad(f, 0.0, math.inf, limit=400, epsabs=0.0, epsrel=1e-12)[0]


def vacuum(f0_ghz: float) -> float:
    """2 e^2 w^2 / (3 m_e c^3): the dipole rate with d^2 = e^2 hbar / (2 m_e w)."""
    w = _omega(f0_ghz)
    return 2.0 * E_CHARGE ** 2 * w * w / (3.0 * M_E * C_LIGHT ** 3)


def displacement(f0_ghz: float, exact: bool) -> tuple[float, float]:
    w = _omega(f0_ghz)
    alpha = w / C_S * BOHR
    beta = HBAR * w / (2.0 * M_E * C_S * C_S)
    pref = RYDBERG ** 2 * BOHR ** 2 * w ** 6 / (8.0 * math.pi * M_E * RHO * C_S ** 9)

    def f(g: float) -> float:
        u2 = (1.0 - g) * (1.0 + g)
        if u2 <= 0.0:
            return 0.0
        eta = alpha * math.sqrt(u2)
        k2 = 4.0 * up_average(eta) ** 2 if exact else math.log(eta) ** 2
        return g * g * u2 ** 3 * math.exp(-beta * u2) * k2

    val, err = scipy.integrate.quad(f, 0.0, 1.0, limit=400, epsabs=0.0, epsrel=QUAD_REL)
    return pref * val, pref * err


def modulation(f0_ghz: float) -> tuple[float, float]:
    w = _omega(f0_ghz)
    alpha = w / C_S * BOHR
    beta = HBAR * w / (2.0 * M_E * C_S * C_S)
    pref = 8.0 * RYDBERG ** 2 * w ** 4 / (math.pi * M_E * RHO * C_S ** 7)

    def f(g: float) -> float:
        u2 = (1.0 - g) * (1.0 + g)
        return u2 * math.exp(-beta * u2) * oracles.d_closed(alpha * math.sqrt(u2)) ** 2

    val, err = scipy.integrate.quad(f, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=MOD_QUAD_REL)
    return pref * val, pref * err


def _self_check() -> None:
    # the direct route loses digits to cancellation below eta ~ 0.05
    for eta in (0.05, 0.3, 0.97):
        a, b = up_average(eta), _up_average_direct(eta)
        if abs(a - b) > 1e-12 * abs(b):
            raise SystemExit(f"u_p average closed form disagrees at eta={eta}: {a} vs {b}")
    for b in (1e-4, 0.01, 0.1):
        x, y = oracles.d_closed(b), _d_rational(b)
        if abs(x - y) > 1e-10 * abs(y):
            raise SystemExit(f"D({b}) routes disagree: {x} vs {y}")


def main() -> int:
    _self_check()
    t0 = time.time()
    worst: dict[str, float] = {}

    def keep(name: str, val_err: tuple[float, float]) -> float:
        val, err = val_err
        worst[name] = max(worst.get(name, 0.0), err / abs(val))
        return val

    cli = {}
    for key in workloads.CLI_F0:
        f0 = float(key)
        cli[key] = {
            "vacuum": vacuum(f0),
            "displacement_approx": keep("displacement", displacement(f0, False)),
            "displacement_exact": keep("displacement", displacement(f0, True)),
            "modulation": keep("modulation", modulation(f0)),
        }
    library = {}
    for key in workloads.LIB_F0:
        f0 = float(key)
        library[key] = {
            "displacement_approx": keep("displacement", displacement(f0, False)),
            "displacement_exact": keep("displacement", displacement(f0, True)),
        }
    out = {
        "made_by": "python3 perfbench/make_refs.py",
        "routes": "d_closed from tests/_oracles.py, closed-form u_p average, "
                  "scipy.integrate.quad; no necoh code",
        "quad_rel_error_estimate_max": worst,
        "constants": CONSTANTS,
        "cli": cli,
        "library": library,
    }
    path = os.path.join(HERE, "refs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} in {time.time() - t0:.0f} s; worst quad rel error {worst}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
