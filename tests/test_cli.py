import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import necoh
from necoh.cli import (
    ConfigError,
    RunConfig,
    UsageError,
    cmd_rates,
    cmd_reproduce,
    main,
    parse_cavity,
    parse_config_file,
)
from necoh.constants import TWO_PI


# --- config files ---

def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sweep setup\n"
        "f0_ghz = 3.2\n"
        "format = json   # trailing comment\n"
        "points = 4\n"
        "\n"
        "tol = 0.05\n",
        encoding="utf-8")
    assert parse_config_file(str(path)) == {
        "f0_ghz": 3.2, "format": "json", "points": 4, "tol": 0.05}


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("f0_ghz = 3.2\nfrequency = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config_file(str(path))
    assert info.value.line == 2
    assert "frequency" in str(info.value)


def test_parse_config_duplicate_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("points = 4\npoints = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config_file(str(path))
    assert info.value.line == 2


def test_parse_config_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("f0_ghz = fast\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config_file(str(path))
    assert info.value.line == 1


def test_parse_config_missing_separator(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config_file("/nonexistent/run.cfg")


# --- cavity specs ---

def test_parse_cavity_units():
    cav = parse_cavity("g=5MHz,kappa=500kHz,detuning=0.5GHz")
    assert cav.g == pytest.approx(TWO_PI * 5e6, rel=1e-12)
    assert cav.kappa == pytest.approx(TWO_PI * 0.5e6, rel=1e-12)
    assert cav.detuning == pytest.approx(TWO_PI * 500e6, rel=1e-12)


def test_parse_cavity_bare_numbers_are_mhz():
    cav = parse_cavity("g=5, kappa=0.5, detuning=500")
    assert cav.g == pytest.approx(TWO_PI * 5e6, rel=1e-12)


def test_parse_cavity_rejects_incomplete_or_junk():
    with pytest.raises(UsageError):
        parse_cavity("g=5,kappa=0.5")
    with pytest.raises(UsageError):
        parse_cavity("g=5,kappa=0.5,detuning=0")
    with pytest.raises(UsageError):
        parse_cavity("g=abc,kappa=0.5,detuning=500")
    with pytest.raises(UsageError):
        parse_cavity("mode=5,kappa=0.5,detuning=500")


# --- exit codes ---

def test_main_requires_subcommand(capfd):
    assert main([]) == 2
    capfd.readouterr()


def test_main_rejects_unknown_format(capfd):
    assert main(["rates", "--format", "xml"]) == 2
    capfd.readouterr()


def test_main_reports_config_error_with_line(tmp_path, capfd):
    path = tmp_path / "run.cfg"
    path.write_text("f0_ghz = 3.2\nbogus = 1\n", encoding="utf-8")
    assert main(["rates", "--config", str(path)]) == 2
    err = capfd.readouterr().err
    assert err.startswith("config: line 2:")


def test_main_rejects_inverted_sweep(capfd):
    assert main(["sweep", "--from", "5", "--to", "2", "--points", "3"]) == 2
    assert "from < to" in capfd.readouterr().err


def test_main_rejects_nonpositive_frequency(capfd):
    assert main(["rates", "--f0-ghz", "-1"]) == 2
    capfd.readouterr()


@pytest.mark.parametrize("flag, value, named", [
    ("--temperature-mk", "nan", "temperature-mk"),
    ("--temperature-mk", "inf", "temperature-mk"),
    ("--f0-ghz", "nan", "f0-ghz"),
    ("--f0-ghz", "inf", "f0-ghz"),
    ("--cavity", "g=5,kappa=0.5,detuning=nan", "cavity detuning"),
])
def test_main_refuses_non_finite_input(flag, value, named, capfd):
    assert main(["rates", f"{flag}={value}"]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and f"{named} must be finite" in err


def test_main_refuses_an_overflowing_rate(capfd):
    # the stimulated-emission factor at 1e308 mK overflows the modulation rate
    assert main(["rates", "--temperature-mk", "1e308", "--format", "csv"]) == 1
    out, err = capfd.readouterr()
    assert "inf" not in out
    assert err.startswith("error: non-finite rate for channel modulation")


@pytest.mark.parametrize("argv, channel, f0", [
    (["rates", "--f0-ghz", "1e-60"], "displacement", "1e-60"),
    (["rates", "--f0-ghz", "1e-300"], "vacuum", "1e-300"),
    (["sweep", "--from", "1e-300", "--to", "1", "--points", "2"], "vacuum", "1e-300"),
    (["rates", "--f0-ghz", "1e-52"], "displacement", "1e-52"),
    (["rates", "--f0-ghz", "3e-54"], "displacement", "3e-54"),
])
def test_main_refuses_an_underflowed_rate(argv, channel, f0, capfd):
    # a bare rate of 0 would print T1 = inf, a subnormal one a value without
    # its digits (1 + n, ~1e52 here, makes it look normal); it is refused at
    # the first channel that underflows, before the modulation envelope
    # overflows
    assert main(argv + ["--format", "csv"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: {channel} rate underflows at f0 = {f0} GHz\n"


def test_main_keeps_a_normal_bare_rate(capfd):
    # the bare displacement rate at 1e-50 GHz is ~4e-300, still normal
    assert main(["rates", "--f0-ghz", "1e-50", "--format", "csv"]) == 0
    rows = capfd.readouterr().out.splitlines()
    assert [r.split(",")[0] for r in rows] == ["channel", "vacuum", "displacement", "modulation"]


@pytest.mark.parametrize("argv", [
    ["rates", "--f0-ghz", "1e-320"],
    ["sweep", "--from", "1e-320", "--to", "1e-319", "--points", "2"],
])
def test_main_refuses_a_non_finite_occupation(argv, capfd):
    # hbar omega / k T underflows to zero at these trap frequencies
    assert main(argv) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: thermal occupation is not finite at omega = ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's necoh on its path."""
    src = str(Path(necoh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_dispersive_limit_warning_is_one_stderr_line():
    res = _run_python("-m", "necoh", "rates", "--f0-ghz", "1", "--format", "csv",
                      "--cavity", "g=5,kappa=0.5,detuning=10")
    assert res.returncode == 0
    assert res.stderr == ("warning: g/|detuning| = 0.500 exceeds 0.1; dispersive Purcell "
                          "formula is outside its validity range\n")
    assert [r.split(",")[0] for r in res.stdout.splitlines()] == [
        "channel", "vacuum", "displacement", "modulation", "cavity"]


def test_main_refuses_log_kernel_past_its_limit(capfd):
    assert main(["rates", "--f0-ghz", "100"]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: f0-ghz must be below 92.6 GHz with --kernel approx")
    assert main(["sweep", "--from", "1", "--to", "95", "--points", "3"]) == 2
    assert capfd.readouterr().err.startswith("error: to must be below 92.6 GHz")


def test_exact_kernel_runs_past_the_log_kernel_limit(capfd):
    assert main(["rates", "--f0-ghz", "100", "--kernel", "exact", "--format", "csv"]) == 0
    rows = capfd.readouterr().out.splitlines()
    assert [r.split(",")[0] for r in rows] == ["channel", "vacuum", "displacement", "modulation"]


# --- command output ---

def test_rates_table_lists_channels():
    buf = io.StringIO()
    cfg = RunConfig(f0_ghz=2.0)
    assert cmd_rates(cfg, out=buf) == 0
    text = buf.getvalue()
    for name in ("vacuum", "displacement", "modulation", "total"):
        assert name in text
    assert "silicon" in text and "sapphire" in text
    assert "cavity" not in text


def test_rates_json_shape():
    buf = io.StringIO()
    cfg = RunConfig(f0_ghz=2.0, format="json", cavity="g=5,kappa=0.5,detuning=500")
    assert cmd_rates(cfg, out=buf) == 0
    obj = json.loads(buf.getvalue())
    assert obj["f0_ghz"] == 2.0
    names = [ch["name"] for ch in obj["channels"]]
    assert names == ["vacuum", "displacement", "modulation", "cavity"]
    for ch in obj["channels"]:
        assert ch["t2_s"] == pytest.approx(2.0 * ch["t1_s"], rel=5e-12)
    assert obj["gamma_phi_per_s"] == 0.0
    assert len(obj["substrates"]) == 2
    # the cavity entry must point at the known lifetime discrepancy
    assert any("discrepancy" in note for note in obj["notes"])


def test_sweep_csv_written_under_env_dir(tmp_path, monkeypatch, capfd):
    monkeypatch.setenv("NECOH_OUTPUT_DIR", str(tmp_path))
    code = main(["sweep", "--from", "2", "--to", "2", "--points", "1",
                 "--format", "csv", "--output", "grid.csv"])
    assert code == 0
    assert "wrote" in capfd.readouterr().out
    raw = (tmp_path / "grid.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[0].decode().split(",")[:4] == ["f0_ghz", "gamma_vac", "t1_vac", "t2_vac"]
    assert len(lines) == 3 and lines[2] == b""
    row = [float(v) for v in lines[1].decode().split(",")]
    assert row[0] == 2.0
    assert all(math.isfinite(v) for v in row)


def test_sweep_csv_round_trips():
    from necoh.cli import CLI_SPEC, render_sweep
    from necoh.report import build_report

    rep = build_report(2.0, spec=CLI_SPEC)
    text = render_sweep([rep], "csv")
    header, row, tail = text.split("\r\n")
    assert tail == ""
    parsed = dict(zip(header.split(","), (float(v) for v in row.split(","))))
    assert parsed["f0_ghz"] == rep.f0_ghz
    for name, tag in (("vacuum", "vac"), ("displacement", "dis"), ("modulation", "mod")):
        ch = rep.channel(name)
        assert parsed[f"gamma_{tag}"] == pytest.approx(ch.gamma, rel=1e-12)
        assert parsed[f"t1_{tag}"] == pytest.approx(ch.t1, rel=1e-12)
        assert parsed[f"t2_{tag}"] == pytest.approx(ch.t2, rel=1e-12)


def test_reproduce_rejects_unknown_table(capfd):
    assert main(["reproduce", "--table", "3"]) == 2
    capfd.readouterr()


def test_reproduce_exit_reflects_agreement():
    buf = io.StringIO()
    cfg = RunConfig(table=1, tol=0.05)
    assert cmd_reproduce(cfg, out=buf) == 0
    text = buf.getvalue()
    assert "PASS" in text and "FAIL" not in text
    assert "10/10" in text

    buf = io.StringIO()
    cfg = RunConfig(table=1, tol=1e-6)
    assert cmd_reproduce(cfg, out=buf) == 1
    assert "FAIL" in buf.getvalue()


def test_exact_kernel_through_cli(capfd):
    assert main(["rates", "--f0-ghz", "1.0", "--kernel", "exact"]) == 0
    assert "vacuum" in capfd.readouterr().out


def test_cli_flags_override_config_file(tmp_path, capfd):
    path = tmp_path / "run.cfg"
    path.write_text("f0_ghz = 1.0\nformat = json\n", encoding="utf-8")
    assert main(["rates", "--config", str(path), "--format", "table"]) == 0
    out = capfd.readouterr().out
    assert out.startswith("f0 = 1 GHz")


# Runs in a fresh interpreter: lists the scipy modules loaded after
# ``import necoh``, after ``import necoh.cli`` and after four CLI commands,
# with the exit code of each command.
_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import necoh
seen = {"import necoh": scipy_modules()}
from necoh.cli import main
seen["import necoh.cli"] = scipy_modules()
codes = []
for argv in (["rates", "--kernel", "approx"], ["rates", "--kernel", "exact"],
             ["sweep", "--points", "2", "--kernel", "exact"],
             ["reproduce", "--table", "1", "--kernel", "exact"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
seen["commands"] = scipy_modules()
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_rate_paths_leave_scipy_unloaded():
    # scipy.special alone costs ~0.4 s of start-up; only bessel_k1 and u_p,
    # which no rate calls, import it
    res = _run_python("-c", _SCIPY_PROBE)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["codes"] == [0, 0, 0, 1]  # table 1 follows the log kernel
    assert out["seen"] == {"import necoh": [], "import necoh.cli": [], "commands": []}
