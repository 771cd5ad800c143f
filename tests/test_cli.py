import io
import json
import math

import pytest

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
