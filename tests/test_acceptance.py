"""Acceptance gate: one test per criterion, one verdict line each.

Each test prints ``CRITERION n (name): PASS/FAIL`` with the measured
numbers, then asserts. Criterion 2 is expected to fail: the production
rate disagrees with the bundled modulation lifetime table at every row
(monotonically from -50% at 1 GHz to +42% at 10 GHz) while matching two
fully independent evaluation routes of the same double integral, so the
table itself is inconsistent with the stated integrand. The failure is
left visible rather than papered over; see the module-level notes in
necoh.reference.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from necoh.cli import CLI_SPEC, RunConfig, cmd_rates, main
from necoh.constants import NEON
from necoh.displacement import gamma_displacement, u_p_average
from necoh.modulation import S_CUTOFF, gamma_modulation, substrate_suppression
from necoh.numerics import DEFAULT_SPEC, integrate_adaptive, integrate_oscillatory_batch
from necoh.photon import CavityParams, gamma_purcell, gamma_vacuum
from necoh.reference import DISPLACEMENT_TABLE, MODULATION_TABLE, PURCELL_T1_QUOTED
from necoh.report import CHANNEL_DISPLACEMENT, CHANNEL_MODULATION, ChannelRate, build_report
from necoh.surface import BoundState, LateralTrap

from _oracles import h_closed, up_average_direct

ROW_TOL = 0.03

# quoted spot values at the 6.4 GHz operating point
OPERATING_F0_GHZ = 6.4
GAMMA_DISPLACEMENT_REF = 49.4  # s^-1
GAMMA_MODULATION_REF = 908.0  # s^-1
RATE_RATIO_REF = 18.4  # modulation / displacement
T1_VACUUM_REF = 99.0  # s

# quoted binding parameters of the vertical ground state
BOHR_RADIUS_REF_NM = 1.947
RYDBERG_REF_ERG = 1.611e-14
CM_PER_NM = 1e-7

# quoted cavity point: g/2pi = 5 MHz, kappa/2pi = 0.5 MHz, Delta/2pi = 500 MHz
CAVITY_G_MHZ = 5.0
CAVITY_KAPPA_MHZ = 0.5
CAVITY_DETUNING_MHZ = 500.0

# quoted wavenumber diagnostics at 6.4 GHz, in 1/m
ELECTRON_WAVENUMBER_REF = 1.9e7
PHONON_WAVENUMBER_SILICON_REF = 4.7e6
PHONON_WAVENUMBER_SAPPHIRE_REF = 3.5e6

# the abstract: the computed coherence times are "at least one order longer"
# than the ~0.1 ms observed at ~6.4 GHz
OBSERVED_T2_S = 1e-4
ORDER_LONGER = 10.0

_CAPFD = None


@pytest.fixture(autouse=True)
def _verdict_passthrough(capfd):
    # verdict lines must reach the terminal even under default capture
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _verdict(num, name, ok, detail=""):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line)
    else:
        print(line)
    return line


def _lifetime_rows(table, rate_fn):
    start = time.perf_counter()
    rows = []
    for row in table:
        gam, _ = rate_fn(LateralTrap.isotropic_ghz(row.f0_ghz))
        ch = ChannelRate("x", gam)
        rows.append((row, ch))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_displacement_lifetime_table():
    rows, elapsed = _lifetime_rows(
        DISPLACEMENT_TABLE, lambda t: gamma_displacement(t, spec=CLI_SPEC))
    rels = [ch.t1 / row.t1_s - 1.0 for row, ch in rows]
    rels2 = [ch.t2 / row.t2_s - 1.0 for row, ch in rows]
    doubled = all(ch.t2 == 2.0 * ch.t1 for _, ch in rows)
    worst = max(abs(r) for r in rels + rels2)
    ok = worst <= ROW_TOL and doubled and elapsed < 5.0
    line = _verdict(1, "displacement lifetime table",
                    ok, f"worst row {worst:+.2%}, {elapsed:.2f} s")
    assert ok, line


def test_criterion_2_modulation_lifetime_table():
    rows, elapsed = _lifetime_rows(
        MODULATION_TABLE, lambda t: gamma_modulation(t, spec=CLI_SPEC))
    rels = [ch.t1 / row.t1_s - 1.0 for row, ch in rows]
    worst = max(abs(r) for r in rels)
    ok = worst <= ROW_TOL and elapsed < 30.0
    per_row = ", ".join(f"{row.f0_ghz:g} GHz {rel:+.1%}"
                        for (row, _), rel in zip(rows, rels))
    line = _verdict(2, "modulation lifetime table",
                    ok, f"worst row {worst:+.2%}, {elapsed:.2f} s [{per_row}]")
    assert ok, line


def test_criterion_3_operating_point_anchors():
    trap = LateralTrap.isotropic_ghz(OPERATING_F0_GHZ)
    g_dis, _ = gamma_displacement(trap, spec=CLI_SPEC)
    g_mod, _ = gamma_modulation(trap, spec=CLI_SPEC)
    t1_vac = 1.0 / gamma_vacuum(trap)
    rel_dis = g_dis / GAMMA_DISPLACEMENT_REF - 1.0
    rel_mod = g_mod / GAMMA_MODULATION_REF - 1.0
    rel_vac = t1_vac / T1_VACUUM_REF - 1.0
    rel_ratio = (g_mod / g_dis) / RATE_RATIO_REF - 1.0
    ch = ChannelRate("x", g_dis + g_mod + 1.0 / t1_vac)
    ok = (abs(rel_dis) <= 0.03 and abs(rel_mod) <= 0.03 and abs(rel_vac) <= 0.02
          and abs(rel_ratio) <= 0.10 and ch.t2 == 2.0 * ch.t1)
    line = _verdict(3, "operating point anchors", ok,
                    f"displacement {rel_dis:+.2%}, modulation {rel_mod:+.2%}, "
                    f"vacuum T1 {rel_vac:+.2%}, rate ratio {rel_ratio:+.2%}")
    assert ok, line


def test_criterion_4_cavity_rate(capfd):
    cav = CavityParams.from_mhz(CAVITY_G_MHZ, CAVITY_KAPPA_MHZ, CAVITY_DETUNING_MHZ)
    gam = gamma_purcell(cav)
    rel = gam / (100.0 * math.pi) - 1.0
    ratio = PURCELL_T1_QUOTED * gam  # quoted lifetime / computed lifetime

    # the emitted report must carry the discrepancy annotation
    cfg = RunConfig(f0_ghz=OPERATING_F0_GHZ,
                    cavity=f"g={CAVITY_G_MHZ},kappa={CAVITY_KAPPA_MHZ},"
                           f"detuning={CAVITY_DETUNING_MHZ}")
    cmd_rates(cfg)
    annotated = "known discrepancy" in capfd.readouterr().out

    ok = abs(rel) <= 1e-12 and 9.0 < ratio < 11.0 and annotated
    line = _verdict(4, "cavity rate", ok,
                    f"closed form {rel:+.1e}, quoted lifetime {ratio:.1f}x "
                    f"the computed one, annotated={annotated}")
    assert ok, line


def test_criterion_5_dephasing_and_doubling():
    cav = CavityParams.from_mhz(CAVITY_G_MHZ, CAVITY_KAPPA_MHZ, CAVITY_DETUNING_MHZ)
    ok = True
    for f0 in (1.0, OPERATING_F0_GHZ, 10.0):
        rep = build_report(f0, temperature_mk=10.0, cavity=cav, spec=CLI_SPEC)
        ok = ok and rep.gamma_phi == 0.0 and rep.occupation >= 0.0
        ok = ok and all(ch.t2 == 2.0 * ch.t1 for ch in rep.channels)
        ok = ok and rep.total.t2 == 2.0 * rep.total.t1
        ok = ok and dataclasses.replace(rep, temperature_mk=300.0).gamma_phi == 0.0
    line = _verdict(5, "dephasing zero, T2 doubling", ok)
    assert ok, line


def test_criterion_6_vertical_bound_state():
    state = BoundState.for_material(NEON)
    rel_r = state.bohr_radius / (BOHR_RADIUS_REF_NM * CM_PER_NM) - 1.0
    rel_e = state.rydberg / RYDBERG_REF_ERG - 1.0
    ok = abs(rel_r) <= 1e-3 and abs(rel_e) <= 1e-3
    line = _verdict(6, "vertical bound state", ok,
                    f"radius {rel_r:+.3%}, binding {rel_e:+.3%}")
    assert ok, line


def test_criterion_7_numeric_kernels():
    start = time.perf_counter()
    # the closed-form exact kernel against quadrature of u_p on the
    # library-free K1, across both branch switches x = 1 - eta^2/4 = +-1/4
    switches = [2.0 * math.sqrt(q) * (1.0 + d) for q in (0.75, 1.25) for d in (-1e-9, 1e-9)]
    eta = np.concatenate([np.geomspace(1e-8, 700.0, 50), switches])
    up_rel = max(abs(u_p_average(float(e)) / up_average_direct(float(e)) - 1.0) for e in eta)

    vals = u_p_average(np.geomspace(1e-10, 50.0, 300))
    up_ok = bool(np.all(vals > 0.0) and np.all(np.diff(vals) < 0.0))

    anchors = []
    got, err = integrate_adaptive(lambda x: np.log(x) ** 2, 0.0, 1.0, DEFAULT_SPEC)
    anchors.append((got, 2.0, err))
    got, err = integrate_adaptive(lambda s: s * s * np.exp(-2.0 * s), 0.0, S_CUTOFF,
                                  DEFAULT_SPEC)
    anchors.append((got, 0.25, err))
    got, err = integrate_oscillatory_batch(lambda x: (1.0 + x) ** -2, 1.0)
    anchors.append((float(got), h_closed(1.0), float(err)))
    anchors_ok = all(abs(g - want) <= 10.0 * err for g, want, err in anchors)
    elapsed = time.perf_counter() - start

    ok = up_rel <= 1e-12 and up_ok and anchors_ok
    line = _verdict(7, "numeric kernels", ok,
                    f"<u_p> worst {up_rel:.1e}, positive and decreasing: {up_ok}, "
                    f"anchors within reported error: {anchors_ok}, {elapsed:.2f} s")
    assert ok, line


def test_criterion_8_substrate_wavenumbers():
    trap = LateralTrap.isotropic_ghz(OPERATING_F0_GHZ)
    rows = substrate_suppression(trap)
    per_m = {r.material: r.phonon_wavenumber * 100.0 for r in rows}
    k_e = rows[0].electron_wavenumber * 100.0
    rel_e = k_e / ELECTRON_WAVENUMBER_REF - 1.0
    rel_si = per_m["silicon"] / PHONON_WAVENUMBER_SILICON_REF - 1.0
    rel_sa = per_m["sapphire"] / PHONON_WAVENUMBER_SAPPHIRE_REF - 1.0
    flags = all(r.suppressed for r in rows)
    ok = (abs(rel_e) <= 0.02 and abs(rel_si) <= 0.02 and abs(rel_sa) <= 0.02
          and flags)
    line = _verdict(8, "substrate wavenumbers", ok,
                    f"electron {rel_e:+.2%}, silicon {rel_si:+.2%}, "
                    f"sapphire {rel_sa:+.2%}, suppressed={flags}")
    assert ok, line


def test_criterion_9_sweep_csv_determinism(tmp_path):
    args = ["sweep", "--from", "2", "--to", "6", "--points", "2", "--format", "csv"]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(args + ["--output", str(path_a)]) == 0
    assert main(args + ["--output", str(path_b)]) == 0
    same = path_a.read_bytes() == path_b.read_bytes()
    ok = same and len(path_a.read_bytes()) > 0
    line = _verdict(9, "sweep output determinism", ok,
                    f"{len(path_a.read_bytes())} bytes, identical={same}")
    assert ok, line


def test_criterion_10_phonon_coherence_beyond_the_observed():
    rep = build_report(OPERATING_F0_GHZ, temperature_mk=10.0, spec=CLI_SPEC)
    dis, mod = rep.channel(CHANNEL_DISPLACEMENT), rep.channel(CHANNEL_MODULATION)
    t2 = ChannelRate("phonon", dis.gamma + mod.gamma).t2
    ok = t2 >= ORDER_LONGER * OBSERVED_T2_S
    line = _verdict(10, "phonon coherence beyond the observed", ok,
                    f"phonon T2 {t2 * 1e3:.3g} ms (displacement {dis.t2 * 1e3:.3g} ms, "
                    f"modulation {mod.t2 * 1e3:.3g} ms), {t2 / OBSERVED_T2_S:.1f}x "
                    f"the observed {OBSERVED_T2_S * 1e3:g} ms")
    assert ok, line
