"""Self-test of the traced run.

    PYTHONPATH=src python3 perfbench/selftest.py

Traces three fixed calls twice each and checks that

- traced and untraced results are identical;
- every count repeats exactly across the two traced runs;
- the panel counts are the ones measured on the seed code: 25 for
  ``d_integral(0.07)``, 7 for ``gamma_displacement`` (log kernel, 6.4 GHz,
  CLI spec) and 4102 for ``gamma_modulation`` (6.4 GHz, CLI spec).

A later change to the quadrature may move the panel counts on purpose; then
the expected numbers here change with it, in the same change that explains
why. Takes about 20 s (the modulation call dominates). Exit code 0 on
success, 1 on any mismatch.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

EXPECTED_PANELS = {"d_integral(0.07)": 25,
                   "gamma_displacement(6.4 GHz, approx, CLI spec)": 7,
                   "gamma_modulation(6.4 GHz, CLI spec)": 4102}


def _calls():
    import necoh.displacement as dis
    import necoh.modulation as mod
    from necoh.cli import CLI_SPEC
    from necoh.surface import LateralTrap

    trap = LateralTrap.isotropic_ghz(6.4)
    # looked up at call time, so the tracer's rebinding is seen
    return {
        "d_integral(0.07)": lambda: mod.d_integral(0.07),
        "gamma_displacement(6.4 GHz, approx, CLI spec)":
            lambda: dis.gamma_displacement(trap, mode=dis.KernelMode.LOG_APPROX, spec=CLI_SPEC),
        "gamma_modulation(6.4 GHz, CLI spec)": lambda: mod.gamma_modulation(trap, spec=CLI_SPEC),
    }


def main() -> int:
    failures = []
    for name, call in _calls().items():
        plain = call()
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                traced = call()
            finally:
                tracer.restore()
            if traced != plain:
                failures.append(f"{name}: traced {traced} != untraced {plain}")
            counts.append(dict(tracer.counts))
        if counts[0] != counts[1]:
            failures.append(f"{name}: counts differ between runs: {counts}")
        panels = counts[0].get("numerics.panels", 0)
        if panels != EXPECTED_PANELS[name]:
            failures.append(f"{name}: {panels} panels, expected {EXPECTED_PANELS[name]}")
        print(f"{name}: {counts[0]}")
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
