"""Bundled reference values that the ``rates`` and ``reproduce`` commands read.

The two tables list lifetimes of the lateral qubit against the two phonon
channels at 1-10 GHz; ``rates`` sets a cavity lifetime against the quoted
one. The T2 columns equal 2*T1 up to the rounding of the quoted T1. The spot
anchors at the 6.4 GHz operating point are read by the acceptance tests
only, and live there.

Known internal inconsistency, kept as quoted: the cavity (Purcell) lifetime
PURCELL_T1_QUOTED disagrees by a factor of ~10 with the closed form
g^2 kappa / Delta^2 evaluated at the quoted cavity parameters (which gives
exactly 100 pi s^-1, i.e. 3.183 ms); the quoted modulation-channel table is
also not consistent with the quoted 6.4 GHz modulation rate anchor away from
~6.4 GHz. The computation in this package follows the closed forms; the
comparison tolerances live in the callers.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReferenceRow:
    f0_ghz: float
    t1_s: float
    t2_s: float


# interface-displacement channel lifetimes
DISPLACEMENT_TABLE = (
    ReferenceRow(1.0, 183.1, 366.2),
    ReferenceRow(2.0, 4.79, 9.58),
    ReferenceRow(3.0, 0.63, 1.26),
    ReferenceRow(4.0, 0.16, 0.32),
    ReferenceRow(5.0, 0.06, 0.12),
    ReferenceRow(6.0, 0.026, 5.31e-2),
    ReferenceRow(7.0, 0.014, 2.81e-2),
    ReferenceRow(8.0, 8.3e-3, 1.66e-2),
    ReferenceRow(9.0, 5.3e-3, 1.06e-2),
    ReferenceRow(10.0, 3.6e-3, 7.29e-3),
)

# dielectric-modulation channel lifetimes
MODULATION_TABLE = (
    ReferenceRow(1.0, 13.49, 27.0),
    ReferenceRow(2.0, 0.33, 0.66),
    ReferenceRow(3.0, 0.041, 0.082),
    ReferenceRow(4.0, 0.010, 1.98e-2),
    ReferenceRow(5.0, 3.4e-3, 6.81e-3),
    ReferenceRow(6.0, 1.5e-3, 2.94e-3),
    ReferenceRow(7.0, 7.4e-4, 1.48e-3),
    ReferenceRow(8.0, 4.2e-4, 8.34e-4),
    ReferenceRow(9.0, 2.6e-4, 5.11e-4),
    ReferenceRow(10.0, 1.7e-4, 3.33e-4),
)

# quoted cavity lifetime at g/2pi = 5 MHz, kappa/2pi = 0.5 MHz, Delta/2pi = 500 MHz
PURCELL_T1_QUOTED = 0.032  # s, ~10x off the closed form (see module docstring)
