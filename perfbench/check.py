"""Judge op outputs against the stored references in ``refs.json``.

Every check returns one of three statuses:

- ``"ok"``: the op did what its request asked, within the accuracy its
  spec promises (plus the rounding of the printed digits);
- ``"failed"``: the op missed its contract (a malformed request not refused
  with exit code 2, a valid request refused, or a value outside its spec but
  within ``GROSS_REL``). Counted in ``failed``. The workloads hold no
  request that fails on the current code; the known defects are probed
  apart (``spec_misses`` here, ``run.known_defects``);
- ``"wrong"``: necoh reported success with wrong content (a value off by
  more than ``GROSS_REL``, unparsable output, a repeated sweep that is not
  byte-identical). Also counted in ``failed``, and the run is not correct.

``reproduce`` is judged by its computed column, never by its exit code: it
exits 1 whenever a row misses the bundled table, which is the table's
problem, not the computation's.
"""
from __future__ import annotations

import json
import math
import os

from workloads import CLI_REL_TOL, LIB_REL_TOL, SPEC_PROBE_F0, SPEC_REL_TOL, TABLE1_F0

GROSS_REL = 1e-6
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

_TWO_PI = 2.0 * math.pi
_CHANNEL_COLUMNS = {"vacuum": "vac", "displacement": "dis",
                    "modulation": "mod", "cavity": "cav"}


class Refs:
    def __init__(self, path: str = REFS_PATH) -> None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.cli = data["cli"]
        self.library = data["library"]
        consts = data["constants"]
        self._hbar_over_k = consts["hbar"] / consts["boltzmann"]

    def occupation(self, f0_ghz: float, t_mk: float) -> float:
        if t_mk == 0.0:
            return 0.0
        x = self._hbar_over_k * _TWO_PI * f0_ghz * 1e9 / (t_mk * 1e-3)
        return 1.0 / math.expm1(x)

    def channels(self, f0: str, t_mk: float, kernel: str, cavity: dict | None) -> dict:
        """Rate of every channel a ``rates``/``sweep`` row reports at f0."""
        ref = self.cli[f0]
        stim = 1.0 + self.occupation(float(f0), t_mk)
        out = {"vacuum": ref["vacuum"],
               "displacement": stim * ref[f"displacement_{kernel}"],
               "modulation": stim * ref["modulation"]}
        if cavity is not None:
            # g^2 kappa / detuning^2 with every rate in rad/s, inputs in MHz
            out["cavity"] = (_TWO_PI * 1e6 * cavity["g"] ** 2 * cavity["kappa"]
                             / cavity["detuning"] ** 2)
        return out

    def bare(self, f0_ghz: float, channel: str) -> float | None:
        """Stored rate of one channel at a frequency, or None if not stored."""
        for key in (f"{f0_ghz:.2f}", f"{f0_ghz:.4g}"):
            for table in (self.cli, self.library):
                row = table.get(key)
                if row is not None and abs(float(key) - f0_ghz) <= 1e-9 * f0_ghz:
                    return row.get(channel)
        return None


def _rel(got: float, want: float) -> float:
    if not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want)


def _judge(worst: float, tol: float) -> str:
    if worst <= tol:
        return "ok"
    return "failed" if worst <= GROSS_REL else "wrong"


def _print_tol(rel_tol: float, digits: int) -> float:
    # a value printed with `digits` significant digits is off by up to half
    # a unit in the last place
    return rel_tol + 0.5 * 10.0 ** (1 - digits)


def _worst_channel_error(got: dict, want: dict) -> float:
    """got: name -> (gamma, t1, t2); want: name -> gamma."""
    if set(got) != set(want):
        return math.inf
    worst = 0.0
    for name, gamma in want.items():
        g, t1, t2 = got[name]
        worst = max(worst, _rel(g, gamma), _rel(t1, 1.0 / gamma), _rel(t2, 2.0 / gamma))
    return worst


def parse_rates(text: str, fmt: str) -> dict:
    rows: dict = {}
    if fmt == "json":
        for ch in json.loads(text)["channels"]:
            rows[ch["name"]] = (ch["gamma_per_s"], ch["t1_s"], ch["t2_s"])
        return rows
    if fmt == "csv":
        lines = text.split("\r\n")
        if lines[0] != "channel,gamma_per_s,t1_s,t2_s":
            raise ValueError("unexpected csv header")
        for line in lines[1:]:
            if line:
                name, g, t1, t2 = line.split(",")
                rows[name] = (float(g), float(t1), float(t2))
        return rows
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and (parts[0] in _CHANNEL_COLUMNS or parts[0] == "total"):
            rows[parts[0]] = tuple(float(p) for p in parts[1:])
    return rows


def check_rates(op: dict, rc: int, stdout: str, refs: Refs) -> tuple[str, str]:
    if rc != 0:
        return "failed", f"exit {rc}"
    try:
        got = parse_rates(stdout, op["format"])
    except (ValueError, KeyError, TypeError) as exc:
        return "wrong", f"unparsable output: {exc}"
    want = refs.channels(op["f0"], op["t_mk"], op["kernel"], op["cavity"])
    digits = 9 if op["format"] == "table" else 13
    if op["format"] == "table":
        want = dict(want, total=sum(want.values()))
    worst = _worst_channel_error(got, want)
    return _judge(worst, _print_tol(CLI_REL_TOL, digits)), f"max rel error {worst:.2e}"


def parse_sweep(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "csv":
        lines = [line for line in text.split("\r\n") if line]
        cols = lines[0].split(",")
        return [dict(zip(cols, map(float, line.split(",")), strict=True)) for line in lines[1:]]
    lines = text.splitlines()
    cols = lines[0].split()
    return [dict(zip(cols, map(float, line.split()), strict=True)) for line in lines[1:]]


def check_sweep(op: dict, rc: int, text: str, refs: Refs) -> tuple[str, str]:
    if rc != 0:
        return "failed", f"exit {rc}"
    try:
        rows = parse_sweep(text, op["format"])
        keys = [f"{row['f0_ghz']:.2f}" for row in rows]
        if keys != op["grid"]:
            return "wrong", f"grid {keys} != {op['grid']}"
        worst = 0.0
        for key, row in zip(keys, rows):
            want = refs.channels(key, op["t_mk"], op["kernel"], op["cavity"])
            got = {name: (row[f"gamma_{col}"], row[f"t1_{col}"], row[f"t2_{col}"])
                   for name, col in _CHANNEL_COLUMNS.items() if f"gamma_{col}" in row}
            worst = max(worst, _worst_channel_error(got, want))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"unparsable output: {exc}"
    digits = 9 if op["format"] == "table" else 13
    return _judge(worst, _print_tol(CLI_REL_TOL, digits)), f"max rel error {worst:.2e}"


def check_reproduce(op: dict, rc: int, stdout: str, refs: Refs) -> tuple[str, str]:
    if rc not in (0, 1):
        return "failed", f"exit {rc}"
    got = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[4] in ("PASS", "FAIL"):
            got[parts[0]] = float(parts[1])
    if sorted(got) != sorted(TABLE1_F0):
        return "wrong", f"rows {sorted(got)}"
    worst = max(_rel(1.0 / t1, refs.cli[f0][f"displacement_{op['kernel']}"])
                for f0, t1 in got.items())
    return _judge(worst, _print_tol(CLI_REL_TOL, 9)), f"max rel error {worst:.2e}"


def check_library(op: dict, value: tuple[float, float], refs: Refs) -> tuple[str, str]:
    gamma, err = value
    if not (math.isfinite(err) and err >= 0.0):
        return "wrong", f"error estimate {err}"
    worst = _rel(gamma, refs.library[op["f0"]][f"displacement_{op['kernel']}"])
    return _judge(worst, SPEC_REL_TOL[op["spec"]]), f"rel error {worst:.2e}"


def spec_misses(gammas: list[float], refs: Refs) -> int:
    """How many exact-kernel rates at ``SPEC_PROBE_F0`` miss the library spec."""
    return sum(_rel(gamma, refs.library[f0]["displacement_exact"]) > LIB_REL_TOL
               for f0, gamma in zip(SPEC_PROBE_F0, gammas, strict=True))


def check(op: dict, rc: int, output, refs: Refs) -> tuple[str, str]:
    """Status and a short note for one op; ``output`` is what the op produced."""
    kind = op["check"]
    if kind == "usage":
        return ("ok", "") if rc == 2 else ("failed", f"malformed request exited {rc}")
    if kind == "rates":
        return check_rates(op, rc, output, refs)
    if kind == "sweep":
        return check_sweep(op, rc, output, refs)
    if kind == "reproduce":
        return check_reproduce(op, rc, output, refs)
    return check_library(op, output, refs)
