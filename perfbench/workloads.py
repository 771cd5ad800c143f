"""Seeded op plans for the benchmark workloads.

An op is a dict. ``kind`` says how it runs:

- ``"cli"``: ``necoh.cli.main(argv)`` in the worker process;
- ``"proc"``: a fresh ``python -m necoh`` process;
- ``"lib"``: ``necoh.displacement.gamma_displacement`` in the worker process.

The remaining keys describe what a correct answer looks like (see
``check.py``). Ops come in rounds of fixed composition and every run ends on
a round boundary, so the share of each op type, and with it the op cost mix,
is the same for every seed. Only the values inside the ops (frequencies,
temperatures, formats, ...) follow the seed.

Every op of a workload must succeed on the current code. Requests that hit a
known defect of necoh are not ops: they are the fixed probes at the end of
this file, run by every traced run and reported as per-layer counts, so the
defects stay visible without making the timed runs fail.

Every frequency an op can carry is in one of the pools below, which is what
the stored references in ``refs.json`` cover.
"""
from __future__ import annotations

import random

WORKLOADS = ("sweep", "cli-rates", "displacement")

# trap frequencies in GHz, as the strings handed to necoh
CLI_F0 = tuple(f"{1.0 + 0.05 * k:.2f}" for k in range(181))  # 1.00 ... 10.00
LIB_F0 = tuple(f"{0.1 * 900.0 ** (k / 239):.4g}" for k in range(240))  # 0.1 ... 90
TABLE1_F0 = tuple(f"{float(k):.2f}" for k in range(1, 11))  # subset of CLI_F0

# requested accuracy of each path (QuadratureSpec.rel_tol)
CLI_REL_TOL = 1e-7
LIB_REL_TOL = 1e-9

FORMATS = ("table", "csv", "json")
KERNELS = ("approx", "exact")

# malformed requests that necoh refuses with exit code 2
OUT_OF_DOMAIN = (
    ("--f0-ghz", "-2.5"),
    ("--f0-ghz", "0"),
    ("--temperature-mk", "-4"),
    ("--format", "xml"),
    ("--kernel", "bessel"),
    ("--cavity", "g=5,kappa=0.5"),
    ("--cavity", "g=5,kappa=0.5,detuning=500,q=3"),
)

# a cli-rates round: this many valid requests, one drawn from each slice of
# the band, plus one out-of-domain request
CLI_VALID_PER_ROUND = 7
SWEEP_POINTS = 3
# workloads whose first op is run once more after the timed loop, untimed,
# to check that repeating it gives byte-identical output
REPEATED = ("sweep",)
# spec of the library calls: the library default, except that the exact
# kernel asks for the CLI's (see SPEC_PROBE_F0)
LIB_OP_SPEC = {"approx": "library", "exact": "cli"}
SPEC_REL_TOL = {"library": LIB_REL_TOL, "cli": CLI_REL_TOL}
DISPLACEMENT_ROUND = {"lib-approx": 14, "lib-exact": 4,
                      "reproduce-approx": 1, "reproduce-exact": 1}

# ops run traced (each also run untraced) in a --trace 1 run
TRACE_OPS = {"sweep": 2, "cli-rates": 5, "displacement": 400}


def _temperature(rng: random.Random) -> str:
    # one run in eight at exactly 0 K, where the occupation vanishes
    return "0" if rng.random() < 0.125 else f"{rng.uniform(0.0, 1000.0):.1f}"


def _cavity(rng: random.Random) -> dict:
    # inside the dispersive limit (g/|detuning| <= 0.05), so no warning
    g = round(rng.uniform(1.0, 10.0), 2)
    kappa = round(rng.uniform(0.1, 1.0), 3)
    detuning = round(rng.uniform(200.0, 1000.0), 1) * rng.choice((-1, 1))
    return {"g": g, "kappa": kappa, "detuning": detuning}


def _cavity_arg(cav: dict) -> str:
    return f"g={cav['g']}MHz,kappa={cav['kappa']}MHz,detuning={cav['detuning']}MHz"


def _physics(rng: random.Random) -> tuple[list[str], dict]:
    """Seeded temperature, kernel and cavity: CLI flags and expectations."""
    t_mk = _temperature(rng)
    kernel = rng.choice(KERNELS)
    cav = _cavity(rng) if rng.random() < 0.5 else None
    argv = ["--temperature-mk", t_mk, "--kernel", kernel]
    if cav is not None:
        argv += ["--cavity", _cavity_arg(cav)]
    return argv, {"t_mk": float(t_mk), "kernel": kernel, "cavity": cav}


def _rates_op(rng: random.Random, f0: str) -> dict:
    fmt = rng.choice(FORMATS)
    phys_argv, phys = _physics(rng)
    argv = ["rates", "--f0-ghz", f0, "--format", fmt] + phys_argv
    return {"kind": "proc", "check": "rates", "argv": argv, "f0": f0,
            "format": fmt, **phys}


def _malformed_op(rng: random.Random, bad: tuple[str, str]) -> dict:
    # the default f0 (6.4 GHz) unless f0 is the bad value
    flag, value = bad
    # --flag=value keeps argparse from reading "-2.5" as an option
    argv = ["rates", "--format", rng.choice(FORMATS), f"{flag}={value}"]
    return {"kind": "proc", "check": "usage", "argv": argv}


def _cli_rates_rounds(rng: random.Random):
    # valid requests one from each slice of the band (cost rises with f0)
    # and one malformed request
    while True:
        ops = [_rates_op(rng, f0) for f0 in _stratified(rng, CLI_F0, CLI_VALID_PER_ROUND)]
        ops.append(_malformed_op(rng, rng.choice(OUT_OF_DOMAIN)))
        rng.shuffle(ops)
        yield ops


def _sweep_op(rng: random.Random, fmt: str, out_name: str) -> dict:
    # each grid point stays inside one of the plateaus of the seed code's
    # modulation cost (panel counts step near 1.5 and 6.25 GHz), so an op's
    # cost does not depend on the seed
    lo = f"{rng.randrange(15, 26) / 10:.1f}"  # 1.5 ... 2.5 GHz
    hi = f"{rng.randrange(85, 96) / 10:.1f}"  # 8.5 ... 9.5 GHz
    phys_argv, phys = _physics(rng)
    mid = f"{(float(lo) + float(hi)) / 2:.2f}"
    argv = ["sweep", "--from", lo, "--to", hi, "--points", str(SWEEP_POINTS),
            "--format", fmt, "--output", out_name] + phys_argv
    return {"kind": "cli", "check": "sweep", "argv": argv, "format": fmt,
            "grid": [f"{float(lo):.2f}", mid, f"{float(hi):.2f}"], **phys}


def _sweep_rounds(rng: random.Random):
    k = 0
    while True:
        # the first op is the one repeated (REPEATED): CSV, as users diff it
        fmt = "csv" if k == 0 else rng.choice(FORMATS)
        yield [_sweep_op(rng, fmt, f"sweep-{k}.{'txt' if fmt == 'table' else fmt}")]
        k += 1


def _stratified(rng: random.Random, pool: tuple[str, ...], n: int) -> list[str]:
    """One draw from each of n equal slices of the pool."""
    edges = [round(i * len(pool) / n) for i in range(n + 1)]
    return [rng.choice(pool[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]


def _displacement_rounds(rng: random.Random):
    while True:
        ops = []
        for mode in KERNELS:
            for f0 in _stratified(rng, LIB_F0, DISPLACEMENT_ROUND[f"lib-{mode}"]):
                ops.append({"kind": "lib", "check": "lib", "f0": f0, "kernel": mode,
                            "spec": LIB_OP_SPEC[mode]})
            for _ in range(DISPLACEMENT_ROUND[f"reproduce-{mode}"]):
                tol = rng.choice(("0.03", "0.1", "0.3"))
                ops.append({"kind": "cli", "check": "reproduce", "kernel": mode,
                            "argv": ["reproduce", "--table", "1", "--kernel", mode,
                                     "--tol", tol]})
        rng.shuffle(ops)
        yield ops


def rounds(workload: str, seed: int):
    """Endless generator of op rounds for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return _sweep_rounds(rng)
    if workload == "cli-rates":
        return _cli_rates_rounds(rng)
    if workload == "displacement":
        return _displacement_rounds(rng)
    raise ValueError(f"unknown workload {workload!r}")


def first_ops(workload: str, seed: int, n: int) -> list[dict]:
    """The first n ops of a workload's plan (used by the traced run)."""
    out: list[dict] = []
    for rnd in rounds(workload, seed):
        out.extend(rnd)
        if len(out) >= n:
            return out[:n]
    return out


# Known defects, probed once by every traced run (``run.known_defects``):
# - non-finite CLI values, which every request must refuse with exit code 2;
#   the current code accepts the two NaN temperature and detuning values
#   (exit 0) and fails with exit 1 on the other three;
NON_FINITE = (
    ("--temperature-mk", "nan"),
    ("--temperature-mk", "inf"),
    ("--f0-ghz", "nan"),
    ("--f0-ghz", "inf"),
    ("--cavity", "g=5,kappa=0.5,detuning=nan"),
)
# - the exact displacement kernel at the library default spec (rel 1e-9):
#   its fixed vertical grid is off by 3e-10 at 0.1 GHz rising to 1.5e-9 at
#   90 GHz, outside the spec above about 22 GHz and outside its own error
#   estimate. Twelve frequencies spread over the library pool, 0.15-90 GHz.
SPEC_PROBE_F0 = LIB_F0[19::20]
