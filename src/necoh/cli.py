"""Command line interface.

Three subcommands:

- ``rates``: every channel at one trap frequency.
- ``sweep``: channels over a frequency grid, CSV/JSON/table.
- ``reproduce``: recompute one of the bundled reference tables and compare
  row by row at a tolerance.

Options may come from a flat ``key = value`` config file (``--config``);
explicit command line flags win over the file. Each command checks the
domain of the options it reads only, and refuses a non-finite number in any.
Exit codes: 0 success, 1 a channel computation or a reproduction comparison
failed, 2 usage or config errors, non-finite numbers (nan, inf) included, and
an ``--output`` file that cannot be opened. Warnings raised while a command
runs (the dispersive limit of the cavity channel) go to stderr as one
``warning: <message>`` line each.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .displacement import KernelMode, kernel_kinematics
from .numerics import ConvergenceError, QuadratureSpec
from .photon import CavityParams, DispersiveLimitWarning
from .reference import DISPLACEMENT_TABLE, MODULATION_TABLE, PURCELL_T1_QUOTED
from .report import (CHANNEL_CAVITY, CHANNEL_DISPLACEMENT, CHANNEL_MODULATION, PHONON_RATES,
                     ChannelRate, CoherenceReport, build_report, sweep)
from .surface import LateralTrap

ENV_OUTPUT_DIR = "NECOH_OUTPUT_DIR"

# formatted output carries 13 significant digits but the physics tolerances
# are percent-level; 1e-7 keeps the sweep comfortably inside its time budget
CLI_SPEC = QuadratureSpec(rel_tol=1e-7)

# reference table number -> the phonon channel it lists and its rows
_REFERENCE_TABLES = {1: (CHANNEL_DISPLACEMENT, DISPLACEMENT_TABLE),
                     2: (CHANNEL_MODULATION, MODULATION_TABLE)}


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message)
        self.line = line


class UsageError(Exception):
    pass


def _option(default, flag: str, help: str, commands: tuple[str, ...], choices=None):
    """A RunConfig field read as ``--<flag>`` by ``commands``: its default, help
    text and, if the field takes a fixed set of values, its choices."""
    return field(default=default, metadata={"flag": flag, "help": help, "commands": commands,
                                            "choices": choices})


@dataclass
class RunConfig:
    """Every option of every command, with its default. The declaration
    order is the order of the checks in ``validate``."""

    f0_ghz: float = _option(6.4, "f0-ghz", "trap frequency in GHz (default 6.4)", ("rates",))
    kernel: str = _option("approx", "kernel", "vertical kernel of the displacement channel "
                          "(default approx); the modulation channel (table 2) has none",
                          ("rates", "sweep", "reproduce"), tuple(m.value for m in KernelMode))
    format: str = _option("table", "format", "output format (default table)", ("rates", "sweep"),
                          ("table", "csv", "json"))
    temperature_mk: float = _option(10.0, "temperature-mk", "bath temperature in mK (default 10)",
                                    ("rates", "sweep"))
    cavity: str | None = _option(None, "cavity",
                                 "cavity channel, e.g. g=5MHz,kappa=0.5MHz,detuning=500MHz",
                                 ("rates", "sweep"))
    from_ghz: float = _option(1.0, "from", "grid start in GHz (default 1)", ("sweep",))
    to_ghz: float = _option(10.0, "to", "grid end in GHz (default 10)", ("sweep",))
    points: int = _option(10, "points", "number of grid points (default 10)", ("sweep",))
    output: str | None = _option(None, "output", "write to this file instead of stdout (relative "
                                 f"paths resolve under ${ENV_OUTPUT_DIR} if set)", ("sweep",))
    table: int = _option(1, "table", "1 = displacement lifetimes, 2 = modulation lifetimes",
                         ("reproduce",), tuple(_REFERENCE_TABLES))
    tol: float = _option(0.03, "tol", "per-row relative tolerance (default 0.03)", ("reproduce",))

    def validate(self, command: str) -> None:
        """Refuse a non-finite number in any float field, then a value outside
        its choices or its domain in a field that ``command`` reads
        (``--cavity`` is parsed where used)."""
        options = fields(self)
        for f in options:
            value = getattr(self, f.name)
            if _CONFIG_SCHEMA[f.name] is float and not math.isfinite(value):
                raise UsageError(f"{f.metadata['flag']} must be finite: got {value!r}")
        for f in options:
            value, choices = getattr(self, f.name), f.metadata["choices"]
            if choices and command in f.metadata["commands"] and value not in choices:
                raise UsageError(f"{f.metadata['flag']} must be one of "
                                 f"{', '.join(map(str, choices))}: got {value!r}")
        if command == "reproduce":
            if not 0.0 < self.tol < 1.0:
                raise UsageError("tol must be in (0, 1)")
            return
        if self.temperature_mk < 0.0:
            raise UsageError("temperature-mk must be >= 0")
        if command == "rates":
            if self.f0_ghz <= 0.0:
                raise UsageError("f0-ghz must be positive")
            frequencies = ["f0_ghz"]
        else:
            if self.points < 1:
                raise UsageError("points must be >= 1")
            if self.points > 1 and not self.from_ghz < self.to_ghz:
                raise UsageError("sweep needs from < to")
            if self.from_ghz <= 0.0:
                raise UsageError("sweep frequencies must be positive")
            # a one-point sweep runs at --from only
            frequencies = ["from_ghz"] + (["to_ghz"] if self.points > 1 else [])
        # the rates' own gate on the trap they get: refuse exactly what they refuse
        for f in options:
            if f.name in frequencies:
                try:
                    kernel_kinematics(LateralTrap.isotropic_ghz(getattr(self, f.name)),
                                      KernelMode(self.kernel))
                except ValueError as exc:
                    raise UsageError(f"{f.metadata['flag']}: {exc}") from exc


# config keys with their parsers, one per RunConfig field; the annotations are
# strings here, and every field that is neither float nor int holds a string
_CONFIG_SCHEMA = {f.name: {"float": float, "int": int}.get(f.type, str)
                  for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Flat key = value file; '#' comments; unknown keys are errors."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = _CONFIG_SCHEMA[key](val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r}", line=lineno) from exc
    return values


# longest suffixes first: "5mhz" must not strip as bare "hz"
_UNIT_HZ = {"ghz": 1e3, "mhz": 1.0, "khz": 1e-3, "hz": 1e-6}


def parse_cavity(spec: str) -> CavityParams:
    """Parse 'g=5MHz,kappa=0.5MHz,detuning=500MHz' into CavityParams."""
    values: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"cavity spec needs name=value pairs, got {part!r}")
        name, _, val = part.partition("=")
        name = name.strip().lower()
        if name not in ("g", "kappa", "detuning"):
            raise UsageError(f"unknown cavity field {name!r}")
        if name in values:
            raise UsageError(f"duplicate cavity field {name!r}")
        val = val.strip().lower()
        scale = 1.0  # bare numbers are MHz
        for suffix, s in _UNIT_HZ.items():
            if val.endswith(suffix):
                val = val[: -len(suffix)]
                scale = s
                break
        try:
            values[name] = float(val) * scale
        except ValueError as exc:
            raise UsageError(f"bad cavity value {part!r}") from exc
    missing = {"g", "kappa", "detuning"} - set(values)
    if missing:
        raise UsageError(f"cavity spec missing {', '.join(sorted(missing))}")
    try:
        cavity = CavityParams.from_mhz(values["g"], values["kappa"], values["detuning"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # with no coupling or no loss there is no cavity channel, and its T1 is inf
    for name in ("g", "kappa"):
        if getattr(cavity, name) == 0.0:
            raise UsageError(f"cavity {name} must be positive: got 0 (omit --cavity instead)")
    return cavity


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="necoh",
        description="Relaxation and coherence times of an electron's lateral "
                    "motional states on solid neon.")
    sub = parser.add_subparsers(dest="command", required=True)
    # options that more commands read come first, as the help screens list them
    options = sorted(fields(RunConfig), key=lambda f: -len(f.metadata["commands"]))
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for f in options:
            if command in f.metadata["commands"]:
                p.add_argument(f"--{f.metadata['flag']}", dest=f.name, type=_CONFIG_SCHEMA[f.name],
                               choices=f.metadata["choices"], help=f.metadata["help"])
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in _CONFIG_SCHEMA:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    cfg = RunConfig(**values)
    cfg.validate(args.command)
    return cfg


_fmt9 = "{:.8e}".format
_fmt13 = "{:.12e}".format


def _fmt_ratio(ratio: float) -> str:
    """Table cell of a substrate wavenumber ratio, at most 8 characters wide.

    Three decimals while they fit (ratio below 1e4), else ``%.2e``, so the
    cell never runs into the column before it.
    """
    cell = f"{ratio:.3f}"
    return cell if len(cell) <= 8 else f"{ratio:.2e}"


# one row per channel: its rate and lifetimes, keyed as in `rates` output; a
# sweep spreads the same three numbers over columns "<quantity>_<channel tag>"
_RATE_KEYS = ("gamma_per_s", "t1_s", "t2_s")
_SWEEP_QUANTITIES = ("gamma", "t1", "t2")
_SWEEP_TAGS = {"vacuum": "vac", "displacement": "dis", "modulation": "mod", "cavity": "cav"}


def _channel_row(ch: ChannelRate) -> tuple[float, float, float]:
    return ch.gamma, ch.t1, ch.t2


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\r\n" for row in rows)


def _cavity_note(rep: CoherenceReport) -> str | None:
    try:
        cav = rep.channel(CHANNEL_CAVITY)
    except KeyError:
        return None
    ratio = PURCELL_T1_QUOTED / cav.t1
    if ratio >= 1.0:
        times = f"{ratio:.1f}x above"
    else:  # an exact quotient: T1 / 0.032 s passes the largest float from T1 ~ 6e306 s
        from decimal import Decimal
        times = f"{Decimal(cav.t1) / Decimal(PURCELL_T1_QUOTED):.3g}x below"
    return (f"note: cavity T1 is the closed-form dispersive value; the bundled "
            f"reference lifetime {PURCELL_T1_QUOTED:g} s sits {times} it (known discrepancy)")


def render_sweep(reports: list[CoherenceReport], fmt: str) -> str:
    """One row per report; the columns follow the first report's channels."""
    cols = ["f0_ghz"] + [f"{q}_{_SWEEP_TAGS[ch.name]}"
                         for ch in reports[0].channels for q in _SWEEP_QUANTITIES]
    rows = [[rep.f0_ghz] + [v for ch in rep.channels for v in _channel_row(ch)]
            for rep in reports]
    if fmt == "csv":
        return _csv([cols] + [[_fmt13(v) for v in row] for row in rows])
    if fmt == "json":
        objs = [{c: float(_fmt13(v)) for c, v in zip(cols, row)} for row in rows]
        return json.dumps({"rows": objs}, indent=2) + "\n"
    widths = [max(len(c), 15) for c in cols]
    lines = [cols] + [[_fmt9(v) for v in row] for row in rows]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)) + "\n"
                   for line in lines)


def _rates_line(label: str, cells) -> str:
    return f"{label:<14}" + "".join(f"{cell:>17}" for cell in cells)


def render_rates(rep: CoherenceReport, fmt: str) -> str:
    """Every channel of one report, plus totals and diagnostics in table/JSON."""
    if fmt == "csv":
        return _csv([["channel", *_RATE_KEYS]]
                    + [[ch.name, *map(_fmt13, _channel_row(ch))] for ch in rep.channels])
    note = _cavity_note(rep)
    if fmt == "json":
        obj = {
            "f0_ghz": rep.f0_ghz,
            "temperature_mk": rep.temperature_mk,
            "gamma_phi_per_s": rep.gamma_phi,
            "thermal_occupation": rep.occupation,
            "channels": [
                {"name": ch.name,
                 **{k: float(_fmt13(v)) for k, v in zip(_RATE_KEYS, _channel_row(ch))}}
                for ch in rep.channels
            ],
            "substrates": [
                {"material": s.material,
                 "phonon_wavenumber_per_m": float(_fmt13(s.phonon_wavenumber * 100.0)),
                 "electron_wavenumber_per_m": float(_fmt13(s.electron_wavenumber * 100.0)),
                 "wavenumber_ratio": float(_fmt13(s.wavenumber_ratio)),
                 "suppressed": s.suppressed}
                for s in rep.substrates
            ],
        }
        if note is not None:
            obj["notes"] = [note]
        return json.dumps(obj, indent=2) + "\n"
    lines = [
        f"f0 = {rep.f0_ghz:g} GHz, T = {rep.temperature_mk:g} mK",
        "",
        _rates_line("channel", _RATE_KEYS),
        *(_rates_line(ch.name, map(_fmt9, _channel_row(ch))) for ch in rep.channels),
        _rates_line("total", map(_fmt9, _channel_row(rep.total))),
        "",
        f"gamma_phi = {_fmt9(rep.gamma_phi)} 1/s (one-phonon dephasing)",
        f"thermal occupation = {_fmt9(rep.occupation)}",
        "",
        f"{'substrate':<12}{'k_phonon_per_m':>17}{'k_electron_per_m':>18}{'ratio':>9}"
        "  suppressed",
    ]
    for sub in rep.substrates:
        lines.append(f"{sub.material:<12}{_fmt9(sub.phonon_wavenumber * 100.0):>17}"
                     f"{_fmt9(sub.electron_wavenumber * 100.0):>18}"
                     f"{_fmt_ratio(sub.wavenumber_ratio):>9}  {'yes' if sub.suppressed else 'no'}")
    if note is not None:
        lines.extend(("", note))
    return "\n".join(lines) + "\n"


def _report_options(cfg: RunConfig) -> dict:
    """build_report keyword arguments of a run; parses --cavity."""
    cavity = parse_cavity(cfg.cavity) if cfg.cavity is not None else None
    return {"temperature_mk": cfg.temperature_mk, "cavity": cavity,
            "kernel": KernelMode(cfg.kernel), "spec": CLI_SPEC}


def cmd_rates(cfg: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    out.write(render_rates(build_report(cfg.f0_ghz, **_report_options(cfg)), cfg.format))
    return 0


def cmd_sweep(cfg: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    if cfg.output is not None:
        if not cfg.output:
            raise UsageError("output must name a file: got ''")
        # os.path.join drops the base directory when --output is absolute
        base = os.environ.get(ENV_OUTPUT_DIR) or "."
        path = os.path.join(base, cfg.output)
        folder = os.path.dirname(path)
        if not os.path.isdir(folder):
            raise UsageError(f"output directory does not exist: {folder}")
        if os.path.isdir(path):
            raise UsageError(f"output path is a directory: {path}")
        # open it before any rate runs, without truncating it; a file made
        # only for this check goes again, so a failed run leaves no trace
        new = not os.path.lexists(path)
        try:
            os.close(os.open(path, os.O_WRONLY | (os.O_CREAT | os.O_EXCL if new else 0)))
        except OSError as exc:
            raise UsageError(f"cannot write output file {path}: {exc.strerror}") from exc
        if new:
            os.remove(path)
    try:
        grid = np.linspace(cfg.from_ghz, cfg.to_ghz, cfg.points)
    except (MemoryError, ValueError) as exc:
        # numpy refuses a grid beyond memory or its index range before allocating
        raise UsageError(f"points must fit in memory: got {cfg.points}") from exc
    text = render_sweep(sweep(grid, **_report_options(cfg)), cfg.format)
    if cfg.output is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        out.write(f"wrote {path}\n")
    else:
        out.write(text)
    return 0


def cmd_reproduce(cfg: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    channel, table = _REFERENCE_TABLES[cfg.table]
    rate = PHONON_RATES[channel]
    out.write(f"reference table {cfg.table} ({channel} channel), tolerance {cfg.tol:.1%}\n")
    out.write(f"{'f0_ghz':>7} {'t1_computed_s':>16} {'t1_reference_s':>16} "
              f"{'rel_err':>9} status\n")
    failures = 0
    for row in table:
        trap = LateralTrap.isotropic_ghz(row.f0_ghz)
        t1 = ChannelRate(channel, *rate(trap, KernelMode(cfg.kernel), CLI_SPEC)).t1
        rel = t1 / row.t1_s - 1.0
        ok = abs(rel) <= cfg.tol
        failures += 0 if ok else 1
        out.write(f"{row.f0_ghz:>7.2f} {_fmt9(t1):>16} {_fmt9(row.t1_s):>16} "
                  f"{rel:>+9.2%} {'PASS' if ok else 'FAIL'}\n")
    out.write(f"{len(table) - failures}/{len(table)} rows within {cfg.tol:.1%}\n")
    return 0 if failures == 0 else 1


_COMMANDS = {"rates": (cmd_rates, "all channels at one frequency"),
             "sweep": (cmd_sweep, "channels over a frequency grid"),
             "reproduce": (cmd_reproduce, "recompute a bundled reference table")}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        run, _ = _COMMANDS[args.command]
        with warnings.catch_warnings():
            # shown once per call site and command, whatever the caller's filters
            warnings.simplefilter("default", DispersiveLimitWarning)
            warnings.showwarning = _show_warning
            return run(cfg)
    except ConfigError as exc:
        where = f"line {exc.line}: " if exc.line is not None else ""
        print(f"config: {where}{exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
