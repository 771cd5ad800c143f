import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import necoh
from necoh import displacement, modulation, report
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
from necoh.constants import NEON, TWO_PI
from necoh.displacement import KernelMode
from necoh.reference import DISPLACEMENT_TABLE
from necoh.surface import BoundState

from _oracles import log_kernel_ceiling_ghz, vertical_ceiling_ghz


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which strict parsers reject."""
    def refuse(constant: str):
        raise ValueError(f"non-finite number in JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


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


def test_main_refuses_an_output_folder_key(tmp_path, capfd):
    # the output folder comes from $NECOH_OUTPUT_DIR only; a config file
    # cannot set it
    key = "output" + "_dir"
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = x\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 2
    assert capfd.readouterr().err == f"config: line 1: unknown key {key!r}\n"


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


@pytest.mark.parametrize("cavity, err", [
    # 1e308 GHz is finite as typed and overflows on its way to rad/s
    ("g=1e308GHz,kappa=0.5,detuning=500", "error: cavity g must be finite: got inf rad/s\n"),
    ("g=-5,kappa=0.5,detuning=500",
     "error: g and kappa must be non-negative: got g = -3.14159e+07 rad/s\n"),
], ids=["overflows", "negative"])
def test_main_names_the_refused_cavity_value(cavity, err, capfd):
    assert main(["rates", "--cavity", cavity]) == 2
    assert capfd.readouterr() == ("", err)


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
    # the first channel that underflows
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
    """A fresh interpreter with this checkout's necoh on its path, which
    treats every warning as an error, as the tests themselves do."""
    src = str(Path(necoh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_warnings_are_errors_here_and_in_child_interpreters():
    # guards the policy in pyproject.toml and in _run_python: without it a
    # floating-point overflow in a rate is a warning that no test sees
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.float64(1e308) * 10
    res = _run_python("-c", "import numpy as np; np.float64(1e308) * 10")
    assert res.returncode == 1 and "RuntimeWarning: overflow" in res.stderr


_DISPERSIVE_CAVITY = "g=5,kappa=0.5,detuning=10"
_DISPERSIVE_WARNING = ("warning: g/|detuning| = 0.500 exceeds 0.1; dispersive Purcell "
                       "formula is outside its validity range\n")


def test_dispersive_limit_warning_is_one_stderr_line():
    res = _run_python("-m", "necoh", "rates", "--f0-ghz", "1", "--format", "csv",
                      "--cavity", _DISPERSIVE_CAVITY)
    assert res.returncode == 0
    assert res.stderr == _DISPERSIVE_WARNING
    assert [r.split(",")[0] for r in res.stdout.splitlines()] == [
        "channel", "vacuum", "displacement", "modulation", "cavity"]


@pytest.mark.parametrize("argv, calls", [
    (["rates", "--f0-ghz", "1"], 2),
    (["sweep", "--points", "2"], 1),
], ids=["rates-twice", "sweep"])
def test_dispersive_limit_warning_is_one_line_per_main_call(argv, calls, monkeypatch, capfd):
    # in process, under the tests' error filter: one line per call, however
    # many grid points warn
    _stub_phonon_rates(monkeypatch)
    for _ in range(calls):
        assert main(argv + ["--format", "csv", "--cavity", _DISPERSIVE_CAVITY]) == 0
    assert capfd.readouterr().err == calls * _DISPERSIVE_WARNING


def test_main_refuses_log_kernel_past_its_limit(capfd):
    assert main(["rates", "--f0-ghz", "100"]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: f0-ghz: logarithmic kernel requires q r_B < 1, "
                          "f0 below 92.6 GHz: alpha = 1.08 at 100.000 GHz")
    assert main(["sweep", "--from", "1", "--to", "95", "--points", "3"]) == 2
    assert capfd.readouterr().err.startswith(
        "error: to: logarithmic kernel requires q r_B < 1, f0 below 92.6 GHz")


def test_exact_kernel_runs_past_the_log_kernel_limit(capfd):
    assert main(["rates", "--f0-ghz", "100", "--kernel", "exact", "--format", "csv"]) == 0
    rows = capfd.readouterr().out.splitlines()
    assert [r.split(",")[0] for r in rows] == ["channel", "vacuum", "displacement", "modulation"]


@pytest.mark.parametrize("argv, flag", [
    (["rates", "--kernel", "exact", "--f0-ghz", "3000"], "f0-ghz"),
    (["rates", "--kernel", "exact", "--f0-ghz", "1e200"], "f0-ghz"),
    (["sweep", "--kernel", "exact", "--from", "1000", "--to", "3000"], "to"),
])
def test_main_refuses_f0_at_the_vertical_spacing(argv, flag, capfd):
    # at 3R/(4h) ~ 1823 GHz one lateral quantum excites the vertical motion,
    # which no channel includes; 1e200 GHz would also overflow the rates
    assert main(argv) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag}: f0 must be below 1823.2 GHz, the vertical 1 -> 2 "
                          "spacing")
    assert len(err.splitlines()) == 1


def test_main_names_an_f0_whose_trap_frequency_overflows(capfd):
    # 1e300 GHz passes the float parse, but 2 pi 1e309 rad/s is inf
    assert main(["rates", "--kernel", "exact", "--f0-ghz", "1e300"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: f0-ghz: trap frequency must be positive and finite: got inf rad/s\n"


# one ulp below 3R/(4h) as a float, but the rates' f0, recomputed from the
# trap's angular frequency, rounds up onto it
_ULP_BELOW_SPACING = "1823.2669684769592"


@pytest.mark.parametrize("argv, flag", [
    (["rates", "--kernel", "exact", "--f0-ghz", _ULP_BELOW_SPACING], "f0-ghz"),
    (["sweep", "--kernel", "exact", "--from", "1823", "--to", _ULP_BELOW_SPACING,
      "--points", "3"], "to"),
])
def test_main_refuses_f0_the_rates_refuse_before_any_rate_runs(argv, flag, monkeypatch, capfd):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rate ran on an f0 the command should have refused")

    monkeypatch.setattr(report, "gamma_displacement", unreachable)
    monkeypatch.setattr(report, "gamma_modulation", unreachable)
    assert main(argv) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == (f"error: {flag}: f0 must be below 1823.2 GHz, the vertical 1 -> 2 spacing "
                   "3R/(4h), where the model holds: got 1823.27 GHz\n")


@pytest.mark.parametrize("kernel", ["approx", "exact"])
@pytest.mark.parametrize("ceiling", ["log kernel", "vertical spacing"])
def test_cli_refuses_exactly_the_f0_the_rates_refuse(kernel, ceiling, monkeypatch):
    # every f0 within 2000 ulps of the ceiling: RunConfig.validate must refuse
    # it exactly when a real rate function does; their integrators are stubbed
    # so only the rates' own range checks run
    monkeypatch.setattr(displacement, "integrate_adaptive", lambda *args: (1.0, 0.0))
    monkeypatch.setattr(modulation, "integrate_adaptive", lambda *args: (1.0, 0.0))
    state = BoundState.for_material(NEON)
    limit = (log_kernel_ceiling_ghz(NEON.sound_speed, state.bohr_radius)
             if ceiling == "log kernel" else vertical_ceiling_ghz(state.rydberg))
    grid = (np.array(limit).view(np.int64) + np.arange(-2000, 2001)).view(np.float64)
    disagree, refused = [], 0
    for f0 in grid.tolist():
        try:
            RunConfig(f0_ghz=f0, kernel=kernel).validate("rates")
            cli_refuses = False
        except UsageError:
            cli_refuses = True
        try:
            report.build_report(f0, kernel=KernelMode(kernel))
            rates_refuse = False
        except ValueError:
            rates_refuse = True
        refused += rates_refuse
        if cli_refuses != rates_refuse:
            disagree.append(f0)
    assert disagree == []
    if (ceiling == "log kernel") == (kernel == "approx"):
        assert 0 < refused < grid.size  # the scan straddles its kernel's ceiling
    else:  # all past 92.6 GHz with the log kernel, all inside with the exact
        assert refused == (grid.size if kernel == "approx" else 0)


@pytest.mark.parametrize("points", ["1000000000000", "100000000000000000000"])
def test_main_refuses_a_grid_beyond_memory(points, capfd):
    # numpy refuses both before allocating (7.3 TiB; past its index range);
    # sizes from ~1e8 to 1e11 would allocate gigabytes for real
    assert main(["sweep", "--points", points]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: points must fit in memory: got {points}\n"


def test_main_refuses_a_missing_output_directory_before_computing(tmp_path, monkeypatch, capfd):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran before its output path was checked")

    monkeypatch.setattr(report, "gamma_modulation", unreachable)
    monkeypatch.setenv("NECOH_OUTPUT_DIR", str(tmp_path))
    assert main(["sweep", "--points", "2", "--output", "missing/grid.csv"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: output directory does not exist: {tmp_path / 'missing'}\n"
    assert list(tmp_path.iterdir()) == []
    # an existing directory is no file to write either
    assert main(["sweep", "--points", "2", "--output", "."]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: output path is a directory: {os.path.join(tmp_path, '.')}\n"
    assert list(tmp_path.iterdir()) == []


def test_main_refuses_an_output_file_it_cannot_open_before_computing(tmp_path, monkeypatch,
                                                                     capfd):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran before its output file was checked")

    monkeypatch.setattr(report, "gamma_modulation", unreachable)
    monkeypatch.setenv("NECOH_OUTPUT_DIR", str(tmp_path))
    # longer than any file name the file system takes (255 bytes); an
    # unwritable file or folder takes the same path, but not as root
    name = "a" * 300 + ".csv"
    assert main(["sweep", "--points", "2", "--output", name]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write output file {os.path.join(tmp_path, name)}: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, err", [
    ("rates", "cavity", "error: cavity spec missing detuning, g, kappa\n"),
    ("sweep", "output", "error: output must name a file: got ''\n"),
], ids=["cavity", "output"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_main_refuses_an_empty_cavity_or_output_before_computing(command, key, err, source,
                                                                tmp_path, monkeypatch, capfd):
    # an empty value is a value, not an absent option: it must not fall back
    # to no cavity channel, or to stdout
    def unreachable(*args, **kwargs):
        raise AssertionError("a rate ran before the empty option was refused")

    monkeypatch.setattr(report, "gamma_vacuum", unreachable)
    monkeypatch.setenv("NECOH_OUTPUT_DIR", str(tmp_path))
    if source == "flag":
        argv = [command, f"--{key}="]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} =\n", encoding="utf-8")
        argv = [command, "--config", str(path)]
    assert main(argv) == 2
    assert capfd.readouterr() == ("", err)
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if source == "config" else [])


def test_failed_sweep_leaves_its_output_path_as_it_was(tmp_path, monkeypatch, capfd):
    # the up-front check opens the file: it must neither truncate an existing
    # file nor leave a new one behind when the sweep then fails
    def fails(*args, **kwargs):
        raise ValueError("rate failed")

    monkeypatch.setattr(report, "gamma_modulation", fails)
    monkeypatch.setenv("NECOH_OUTPUT_DIR", str(tmp_path))
    (tmp_path / "old.csv").write_bytes(b"kept\r\n")
    for name in ("old.csv", "new.csv"):
        assert main(["sweep", "--points", "2", "--output", name]) == 1
        assert capfd.readouterr() == ("", "error: rate failed\n")
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]
    assert (tmp_path / "old.csv").read_bytes() == b"kept\r\n"


def _stub_phonon_rates(monkeypatch):
    # instant stand-ins; displacement gives table 1's rate at its nearest row
    def displacement(trap, mode=None, spec=None):
        f0 = trap.omega_x / (TWO_PI * 1e9)
        row = min(DISPLACEMENT_TABLE, key=lambda r: abs(r.f0_ghz - f0))
        return 1.0 / row.t1_s, 0.0

    monkeypatch.setattr(report, "gamma_displacement", displacement)
    monkeypatch.setattr(report, "gamma_modulation", lambda trap, spec=None: (1.0, 0.0))


@pytest.mark.parametrize("argv, config", [
    (["rates"], "from_ghz = 2000\nto_ghz = 3000\n"),
    (["rates"], "points = 0\ntable = 3\ntol = 2\n"),
    (["sweep", "--points", "2"], "f0_ghz = 100\n"),
    (["reproduce", "--table", "1"], "f0_ghz = 100\n"),
    (["reproduce", "--table", "1"], "format = xml\ntemperature_mk = -4\n"),
    (["reproduce", "--table", "1"], "format = json\ntemperature_mk = 50\ncavity = junk\n"),
], ids=["rates-sweep-range", "rates-other-keys", "sweep-f0", "reproduce-f0",
        "reproduce-other-keys", "reproduce-channel-keys"])
def test_config_keys_a_command_does_not_read_are_not_checked(argv, config, tmp_path,
                                                             monkeypatch, capfd):
    _stub_phonon_rates(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text(config, encoding="utf-8")
    assert main(argv + ["--config", str(path)]) == 0
    assert capfd.readouterr().err == ""


# every float option: its config key and the flag a refusal names
_FLOAT_FLAGS = {"f0_ghz": "f0-ghz", "temperature_mk": "temperature-mk", "from_ghz": "from",
                "to_ghz": "to", "tol": "tol"}


@pytest.mark.parametrize("command", ["rates", "sweep", "reproduce"])
def test_config_refuses_a_non_finite_number_for_every_command(command, tmp_path, capfd):
    # in every float key, even one the command does not read, and before any
    # choice check (format = xml is refused by rates and sweep)
    assert _FLOAT_FLAGS.keys() == {f.name for f in fields(RunConfig) if f.type == "float"}
    path = tmp_path / "run.cfg"
    cases = [(f"{key} = {value}\n", flag, value)
             for key, flag in _FLOAT_FLAGS.items() for value in ("nan", "inf", "-inf")]
    cases.append(("f0_ghz = nan\nformat = xml\n", "f0-ghz", "nan"))
    for config, flag, value in cases:
        path.write_text(config, encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        assert capfd.readouterr() == ("", f"error: {flag} must be finite: got {value}\n")


# the flags each command accepts, as its help screen lists them
_COMMAND_FLAGS = {
    "rates": ["--help", "--config", "--kernel", "--format", "--temperature-mk", "--cavity",
              "--f0-ghz"],
    "sweep": ["--help", "--config", "--kernel", "--format", "--temperature-mk", "--cavity",
              "--from", "--to", "--points", "--output"],
    "reproduce": ["--help", "--config", "--kernel", "--table", "--tol"],
}


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_a_command_accepts(command, capfd):
    assert main([command, "--help"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out)) == set(_COMMAND_FLAGS[command])


@pytest.mark.parametrize("flag, value", [
    ("--format", "json"), ("--temperature-mk", "-4"), ("--cavity", "junk")])
def test_reproduce_refuses_the_channel_options_it_does_not_read(flag, value, monkeypatch,
                                                                capfd):
    # a config file may still carry these keys (see the test above)
    _stub_phonon_rates(monkeypatch)
    assert main(["reproduce", "--table", "1", flag, value]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.endswith(f"necoh: error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize("argv, f0", [(["rates"], "6.4"), (["sweep", "--points", "2"], "1")],
                         ids=["rates", "sweep"])
@pytest.mark.parametrize("cavity, code, err", [
    ("g=0,kappa=0.5,detuning=500", 2,
     "error: cavity g must be positive: got 0 (omit --cavity instead)\n"),
    ("g=5,kappa=0,detuning=500", 2,
     "error: cavity kappa must be positive: got 0 (omit --cavity instead)\n"),
    ("g=1e-170,kappa=0.5,detuning=500", 1,  # (g/detuning)^2 underflows
     "error: cavity rate underflows at f0 = {f0} GHz\n"),
], ids=["no-coupling", "no-loss", "underflow"])
def test_main_refuses_a_cavity_whose_rate_is_zero(argv, f0, cavity, code, err, monkeypatch,
                                                  capfd):
    # its T1 would print as inf, or as Infinity in JSON, which strict parsers refuse
    _stub_phonon_rates(monkeypatch)
    for fmt in ("table", "csv", "json"):
        assert main(argv + ["--format", fmt, "--cavity", cavity]) == code
        out, got = capfd.readouterr()
        assert "inf" not in out.lower()
        assert (out, got) == ("", err.format(f0=f0))


@pytest.mark.parametrize("cavity, code, err, gamma", [
    # g/|detuning| is inf: past the dispersive limit, and the rate is inf
    ("g=5,kappa=0.5,detuning=1e-320", 1,
     "warning: g/|detuning| = inf exceeds 0.1; dispersive Purcell formula is outside its "
     "validity range\nerror: non-finite rate for channel cavity: inf\n", None),
    # (g/|detuning|)^2 underflows
    ("g=1e-300GHz,kappa=1,detuning=1e300", 1,
     "error: cavity rate underflows at f0 = 6.4 GHz\n", None),
    # g^2 and detuning^2 overflow, their quotient does not: (1e-10)^2 kappa
    ("g=1e150GHz,kappa=1,detuning=1e160GHz", 0, "", TWO_PI * 1e-14),
], ids=["rate-overflows", "rate-underflows", "squares-overflow"])
def test_main_computes_or_refuses_a_cavity_at_extreme_ratios(cavity, code, err, gamma,
                                                             monkeypatch, capfd):
    # a refusal, never a traceback
    _stub_phonon_rates(monkeypatch)
    assert main(["rates", "--format", "csv", "--cavity", cavity]) == code
    out, got = capfd.readouterr()
    assert got == err
    if gamma is None:
        assert out == ""
    else:
        row = out.splitlines()[-1].split(",")
        assert row[0] == "cavity" and float(row[1]) == pytest.approx(gamma, rel=1e-12)


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
    obj = strict_json(buf.getvalue())
    assert obj["f0_ghz"] == 2.0
    names = [ch["name"] for ch in obj["channels"]]
    assert names == ["vacuum", "displacement", "modulation", "cavity"]
    for ch in obj["channels"]:
        assert ch["t2_s"] == pytest.approx(2.0 * ch["t1_s"], rel=5e-12)
    assert obj["gamma_phi_per_s"] == 0.0
    assert len(obj["substrates"]) == 2
    # the cavity entry must point at the known lifetime discrepancy
    assert any("discrepancy" in note for note in obj["notes"])


def test_rates_table_has_no_inf_total(monkeypatch, capfd):
    # two finite channel rates whose sum overflows: exit 1 and no table
    monkeypatch.setattr(report, "gamma_displacement", lambda trap, **kw: (1e308, 0.0))
    monkeypatch.setattr(report, "gamma_modulation", lambda trap, **kw: (1e308, 0.0))
    assert main(["rates", "--format", "table"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: total rate is not finite at f0 = 6.4 GHz\n"


@pytest.mark.parametrize("cavity, says", [
    ("g=5,kappa=0.5,detuning=500", "sits 10.1x above it"),
    ("g=0.1,kappa=0.5,detuning=500", "sits 249x below it"),
    ("g=0.01,kappa=0.5,detuning=500", "sits 2.49e+4x below it"),
    # T1 / 0.032 s passes the largest float here
    ("g=8.9e-158,kappa=1,detuning=1", "sits 6.28e+308x below it"),
])
def test_cavity_note_says_which_side_of_the_reference_lifetime(cavity, says, monkeypatch,
                                                               capfd):
    _stub_phonon_rates(monkeypatch)
    assert main(["rates", "--cavity", cavity]) == 0
    note = capfd.readouterr().out.splitlines()[-1]
    assert note == ("note: cavity T1 is the closed-form dispersive value; the bundled reference "
                    f"lifetime 0.032 s {says} (known discrepancy)")


@pytest.mark.parametrize("f0", [1e-8, 1e-50])
def test_rates_table_ratio_keeps_its_column(f0):
    # from 1e4 up the ratio cell switches to an exponent form, which stays
    # clear of k_electron_per_m down to the lowest f0 the rates allow
    tables = {}
    for fmt in ("table", "json"):
        buf = io.StringIO()
        assert cmd_rates(RunConfig(f0_ghz=f0, format=fmt), out=buf) == 0
        tables[fmt] = buf.getvalue()
    rows = [line.split() for line in tables["table"].splitlines()
            if line.startswith(("silicon", "sapphire"))]
    want = {s["material"]: s["wavenumber_ratio"]
            for s in strict_json(tables["json"])["substrates"]}
    assert [row[0] for row in rows] == list(want)
    for material, _k_phonon, _k_electron, ratio, suppressed in rows:
        assert float(ratio) == pytest.approx(want[material], rel=1e-2)
        assert float(ratio) >= 1e4 and suppressed == "yes"


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


def test_cli_flags_override_config_file(tmp_path, monkeypatch, capfd):
    # a temperature of -0, from the file or a flag, prints as 0
    _stub_phonon_rates(monkeypatch)
    path = tmp_path / "run.cfg"
    path.write_text("f0_ghz = 1.0\nformat = json\ntemperature_mk = -0.0\n", encoding="utf-8")
    assert main(["rates", "--config", str(path), "--format", "table"]) == 0
    out = capfd.readouterr().out
    assert out.startswith("f0 = 1 GHz, T = 0 mK\n")
    assert main(["rates", "--config", str(path), "--temperature-mk", "-0"]) == 0
    assert math.copysign(1.0, strict_json(capfd.readouterr().out)["temperature_mk"]) == 1.0


# Runs in a fresh interpreter: lists the scipy and numpy.polynomial modules
# loaded after ``import necoh``, after ``import necoh.cli`` and after five CLI
# commands, with the exit code of each command.
_STARTUP_PROBE = """
import contextlib, io, json, sys

def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))

import necoh
seen = {"import necoh": unwanted_modules()}
from necoh.cli import main
seen["import necoh.cli"] = unwanted_modules()
codes = []
for argv in (["rates", "--kernel", "approx"], ["rates", "--kernel", "exact"],
             ["sweep", "--points", "2", "--format", "csv"],
             ["sweep", "--points", "2", "--kernel", "exact"],
             ["reproduce", "--table", "1", "--kernel", "exact"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
seen["commands"] = unwanted_modules()
print(json.dumps({"seen": seen, "codes": codes}))
"""


def test_rate_paths_leave_scipy_unloaded():
    # the runtime depends on numpy alone: scipy (scipy.special alone costs
    # ~0.4 s of start-up) is a test dependency, for the oracles only.
    # numpy.polynomial (~1.3 MiB of peak RSS) is not needed either: the
    # Gauss-Legendre rules are constants
    res = _run_python("-c", _STARTUP_PROBE)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["codes"] == [0, 0, 0, 0, 1]  # table 1 follows the log kernel
    assert out["seen"] == {"import necoh": [], "import necoh.cli": [], "commands": []}
