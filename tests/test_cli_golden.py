"""CLI output: byte-for-byte against frozen captures, and values end to end.

Each golden case runs ``necoh.cli.main`` in process and compares its exit
code, stdout, stderr and the bytes of any ``--output`` file with
``tests/golden/<case>.json``. The captures were taken from a known-good
build; rewriting them to make a change pass defeats the test, so only a
deliberate change of the output schema may touch them.

The golden cases freeze the CLI layer only. Both phonon rates are replaced
where ``necoh.report.PHONON_RATES`` looks them up
(``necoh.report.gamma_displacement`` and ``necoh.report.gamma_modulation``)
by closed-form toys with zero error that still depend on the trap frequency
and, for displacement, on the kernel. Every layer above the rates (channel
assembly, thermal factor, reports, rendering, argument and config handling)
runs unchanged, while a change of quadrature inside a channel, which moves
its rate far inside the CLI's rel 1e-7, does not touch a golden file.

``test_rates_json_matches_independent_routes`` runs the CLI unstubbed and
checks every channel's rate against the independent routes of
``tests/_oracles.py`` at the CLI's own tolerance.
"""
import functools
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import necoh.report
from _oracles import (displacement_integral, modulation_integral, rate_scales, stimulated,
                      vacuum_rate)
from necoh.cli import CLI_SPEC, ENV_OUTPUT_DIR, main
from necoh.displacement import KernelMode
from test_cli import strict_json

GOLDEN_DIR = Path(__file__).parent / "golden"
CAVITY = "g=5MHz,kappa=0.5MHz,detuning=-500MHz"
# "{tmp}" stands for a scratch directory, which is also $NECOH_OUTPUT_DIR;
# "run.cfg" in it holds the case's config text when it has one
CASES: dict[str, tuple[list[str], str | None]] = {}
for _fmt in ("table", "csv", "json"):
    CASES[f"rates_{_fmt}"] = (["rates", "--f0-ghz", "2.5", "--format", _fmt], None)
    CASES[f"rates_{_fmt}_cavity"] = (
        ["rates", "--f0-ghz", "2.5", "--format", _fmt, "--cavity", CAVITY], None)
    CASES[f"sweep_{_fmt}"] = (
        ["sweep", "--from", "1", "--to", "9", "--points", "3", "--format", _fmt], None)
    CASES[f"sweep_{_fmt}_cavity"] = (
        ["sweep", "--from", "1", "--to", "9", "--points", "3", "--format", _fmt,
         "--cavity", CAVITY], None)
for _table in ("1", "2"):
    for _kernel in ("approx", "exact"):
        CASES[f"reproduce_{_table}_{_kernel}"] = (
            ["reproduce", "--table", _table, "--kernel", _kernel], None)
CASES.update({
    "sweep_output": (["sweep", "--from", "2", "--to", "2", "--points", "1",
                      "--format", "csv", "--output", "grid.csv"], None),
    "rates_exact_hot": (["rates", "--f0-ghz", "1", "--kernel", "exact",
                         "--temperature-mk", "300", "--format", "csv"], None),
    "rates_config": (["rates", "--config", "{tmp}/run.cfg", "--temperature-mk", "50"],
                     "f0_ghz = 3.2\nformat = json\n"),
    "error_inverted_sweep": (["sweep", "--from", "5", "--to", "2", "--points", "3"], None),
    "error_nonpositive_f0": (["rates", "--f0-ghz", "-1"], None),
    "error_tol_range": (["reproduce", "--tol", "1.5"], None),
    "error_cavity_missing": (["rates", "--cavity", "g=5,kappa=0.5"], None),
    "error_cavity_zero_detuning": (["sweep", "--points", "1",
                                    "--cavity", "g=5,kappa=0.5,detuning=0"], None),
    "error_config_key": (["rates", "--config", "{tmp}/run.cfg"],
                         "f0_ghz = 3.2\nbogus = 1\n"),
})


def _f0_ghz(trap) -> float:
    return trap.omega_x / (2e9 * math.pi)


def gamma_displacement_stub(trap, mode=KernelMode.LOG_APPROX, spec=None):
    # fitted to reference table 1 (within 2.3% at every row), so that
    # reproduce --table 1 keeps one all-PASS case and one all-FAIL case
    f0 = _f0_ghz(trap)
    scale = 1.25 if mode is KernelMode.EXACT else 1.0
    return scale * 6.36e-3 * f0 ** 5.56 * math.exp(-0.153 * f0 - 0.112 * math.log(f0) ** 2), 0.0


def gamma_modulation_stub(trap, spec=None):
    return 0.05 * _f0_ghz(trap) ** 3, 0.0


def run_case(name: str, tmp: str) -> dict:
    """Run one case with ``tmp`` as scratch directory; paths print as {tmp}."""
    argv, config = CASES[name]
    if config is not None:
        Path(tmp, "run.cfg").write_text(config, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {ENV_OUTPUT_DIR: tmp}), \
            redirect_stdout(out), redirect_stderr(err):
        code = main([a.replace("{tmp}", tmp) for a in argv])
    output = None
    if "--output" in argv:
        output = Path(tmp, argv[argv.index("--output") + 1]).read_bytes().decode("ascii")
    return {"argv": argv, "exit": code, "stdout": out.getvalue().replace(tmp, "{tmp}"),
            "stderr": err.getvalue().replace(tmp, "{tmp}"), "output": output}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.setattr(necoh.report, "gamma_displacement", gamma_displacement_stub)
    monkeypatch.setattr(necoh.report, "gamma_modulation", gamma_modulation_stub)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="ascii"))
    assert run_case(name, str(tmp_path)) == golden


# the modulation rate does not depend on the kernel: one oracle per f0
_modulation_integral = functools.lru_cache(maxsize=None)(modulation_integral)


def oracle_rates(f0_ghz: float, temperature_mk: float, exact: bool) -> dict[str, float]:
    """Channel rates from the ``_oracles`` routes alone."""
    alpha, beta, pref_displacement, pref_modulation = rate_scales(f0_ghz)
    stim = stimulated(f0_ghz, temperature_mk)
    return {
        "vacuum": vacuum_rate(f0_ghz),
        "displacement": stim * pref_displacement * displacement_integral(alpha, beta, exact),
        "modulation": stim * pref_modulation * _modulation_integral(alpha, beta),
    }


# f0 and kernel of each run, then its --temperature-mk where not the default;
# the exact kernel alone runs past the log kernel's 92.6 GHz
_ROUTE_RUNS = [(f0, kernel) for f0 in ("1e-4", "1", "6.4", "10", "90")
               for kernel in ("approx", "exact")]
_ROUTE_RUNS += [("200", "exact"), ("6.4", "approx", "300"), ("6.4", "approx", "0")]


@pytest.mark.parametrize("run", _ROUTE_RUNS, ids="-".join)
def test_rates_json_matches_independent_routes(run, capsys):
    f0, kernel, *temperature = run
    argv = ["rates", "--f0-ghz", f0, "--kernel", kernel, "--format", "json"]
    if temperature:
        argv += ["--temperature-mk", *temperature]
    assert main(argv) == 0
    got = strict_json(capsys.readouterr().out)
    want = oracle_rates(float(f0), got["temperature_mk"], kernel == "exact")
    assert [ch["name"] for ch in got["channels"]] == list(want)
    for ch in got["channels"]:
        assert ch["gamma_per_s"] == pytest.approx(want[ch["name"]], rel=CLI_SPEC.rel_tol), \
            ch["name"]
