"""Byte-for-byte CLI output against frozen captures.

Each case runs ``necoh.cli.main`` in process and compares its exit code,
stdout, stderr and the bytes of any ``--output`` file with
``tests/golden/<case>.json``. The captures were taken from a known-good
build; rewriting them to make a change pass defeats the test, so only a
deliberate change of the output schema may touch them.

``necoh.modulation.d_integral`` is replaced by a linear stub: the modulation
channel then costs milliseconds instead of seconds, and every layer above it
(channel assembly, reports, rendering, argument and config handling) runs
unchanged.
"""
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import necoh.modulation
from necoh.cli import ENV_OUTPUT_DIR, main

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


def d_integral_stub(b, spec=None):
    return 0.25 * b, 0.0


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
    monkeypatch.setattr(necoh.modulation, "d_integral", d_integral_stub)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="ascii"))
    assert run_case(name, str(tmp_path)) == golden
