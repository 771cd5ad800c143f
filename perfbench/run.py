"""necoh benchmark: closed-loop workloads with one client, checked against
independent references.

    python3 perfbench/run.py --workload {sweep,cli-rates,displacement}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports necoh from ``src``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; notes go to standard error.

Workloads (op plans in ``workloads.py``):

- ``sweep``: one op is one in-process ``necoh.cli.main(["sweep", ...])``
  with three grid points and ``--output``;
- ``cli-rates``: one op is one fresh ``python -m necoh rates ...`` process;
  rounds of seven valid requests and one malformed request;
- ``displacement``: one op is one in-process ``gamma_displacement`` library
  call or one in-process ``reproduce --table 1``.

Every run first times ``SETUP_SAMPLES`` fresh interpreters from start
through ``import necoh.cli`` and the workload's lazy set-up (``setup_s`` is
their median). ``--trace 0`` then runs ops for ``--seconds`` seconds (whole
rounds) and reports the end-to-end metrics. The time metrics cover the
well-formed requests only; ``ok_ratio`` covers every op. No op of a
workload fails on the current code. ``op_tail_s`` is the highest percentile
with ``TAIL_BEYOND`` samples above it, or the middle sample (the upper one
of an even count) when a run has too few ops for that (``sweep`` and
``cli-rates``); the percentile used goes to standard error.

``--trace 1`` runs a fixed set of ops (``workloads.TRACE_OPS``), each once
untraced and once traced, so its counts repeat exactly for a seed, and
reports the per-layer metrics; the spans are written to ``.perfbench_run/``.
Every traced run also probes necoh's known defects, apart from its ops
(``known_defects``).

Exit code 0 with a result; 1 without one (necoh missing, a worker crashed).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import loops  # noqa: E402
import workloads  # noqa: E402
from tracer import aggregate  # noqa: E402

SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 3
OP_TIMEOUT_S = 90.0
WORKER_GRACE_S = 120.0  # worker time allowed beyond --seconds
TAIL_BEYOND = 10  # samples above the reported tail percentile
RUN_DIR = ".perfbench_run"
WORKER = os.path.join(HERE, "worker.py")
# one thread per native library: the work is single-threaded and the host
# is shared, so extra BLAS/OpenMP threads only add noise
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _env(root: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NECOH_OUTPUT_DIR"] = os.path.join(root, RUN_DIR)
    return env


def _probe(workload: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "probe", "--workload", workload],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed:\n{err}")
    return elapsed


def setup_time(workload: str, env: dict) -> float:
    return statistics.median(_probe(workload, env) for _ in range(SETUP_SAMPLES))


def _importtime(env: dict) -> dict[str, float]:
    """numpy, scipy and necoh's own import time from ``-X importtime``."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import necoh.cli"],
                         capture_output=True, text=True, env=env, timeout=OP_TIMEOUT_S,
                         check=True)
    entries = []
    for line in res.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(self_us) * 1e-6, int(cum_us) * 1e-6))
    out = {"numpy": 0.0, "scipy": 0.0, "necoh": 0.0}
    # importtime lists a module after the imports it triggers; walking the
    # list backwards visits each parent before its children
    stack: list[tuple[int, str]] = []
    for depth, name, self_s, cum_s in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1].split(".")[0] if stack else None
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and parent != top:
            out[top] += cum_s
        if top == "necoh":
            out["necoh"] += self_s
        stack.append((depth, name))
    return out


def setup_layers(env: dict) -> dict[str, float]:
    runs = [_importtime(env) for _ in range(IMPORTTIME_SAMPLES)]
    return {f"setup.{k}_import_s": statistics.median(r[k] for r in runs) for k in runs[0]}


def _run_proc(argv: list[str], env: dict, root: str) -> tuple[float, float, int, str, int]:
    """One child process: wall s, CPU s, exit code, stdout and its size."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    # bytes, so CSV line ends reach the check untranslated
    res = subprocess.run(argv, capture_output=True, env=env, cwd=root, timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, res.returncode, res.stdout.decode("utf-8"), len(res.stdout)


def cli_rates(args, env: dict, root: str, refs) -> dict:
    """cli-rates: every op is a fresh ``python -m necoh`` child process.

    Traced ops start through ``worker.py bootstrap``, which writes the
    child's spans to a file read back here.
    """
    execute = lambda op: _run_proc([sys.executable, "-m", "necoh", *op["argv"]],  # noqa: E731
                                   env, root)
    if not args.trace:
        data = loops.timed("cli-rates", args.seed, args.seconds, execute, refs)
        data["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return data
    dumps = []
    spans_path = os.path.join(root, RUN_DIR, "child-spans.json")

    def execute_traced(op: dict, op_id: int):
        result = _run_proc([sys.executable, WORKER, "bootstrap", spans_path, str(op_id),
                            *op["argv"]], env, root)
        with open(spans_path, encoding="utf-8") as fh:
            dumps.append(json.load(fh))
        os.remove(spans_path)
        dumps[-1]["counts"]["cli.output_bytes"] = result[4]
        return result

    data = loops.traced("cli-rates", args.seed, execute, execute_traced, refs)
    data["dumps"] = dumps
    return data


def in_worker(args, env: dict, root: str) -> dict:
    """sweep and displacement: ops run inside one worker process."""
    out_path = os.path.join(root, RUN_DIR, f"worker-{args.workload}-{os.getpid()}.json")
    cmd = [sys.executable, WORKER, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    res = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=root,
                         timeout=args.seconds + WORKER_GRACE_S)
    if res.returncode != 0:
        raise RuntimeError(f"worker exited {res.returncode}:\n{res.stderr}")
    with open(out_path, encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(out_path)
    return data


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, never below the median."""
    ordered = sorted(walls)
    n = len(ordered)
    i = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def end_to_end(data: dict, setup_s: float) -> dict[str, float]:
    walls = [w for w, _, _, timed in data["ops"] if timed]
    cpus = [c for _, c, _, timed in data["ops"] if timed]
    failed = sum(1 for _, _, s, _ in data["ops"] if s != "ok")
    tail_s, pct = tail(walls)
    note(f"{len(data['ops'])} ops, {len(walls)} well-formed; op_tail_s is p{pct:.2f}")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "op_cpu_s": statistics.median(cpus),
        "ok_ratio": 1.0 - failed / len(data["ops"]),
        "peak_rss_mib": data["peak_rss_kib"] / 1024.0,
    }


def known_defects(env: dict, root: str, refs: check.Refs) -> dict[str, int]:
    """Counts of the known defects probed in ``workloads``: each falls to 0
    when the defect is fixed."""
    not_refused = 0
    for flag, value in workloads.NON_FINITE:
        argv = [sys.executable, "-m", "necoh", "rates", f"{flag}={value}"]
        not_refused += _run_proc(argv, env, root)[2] != 2
    res = subprocess.run([sys.executable, WORKER, "spec-probe"], capture_output=True,
                         text=True, env=env, cwd=root, timeout=OP_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"spec probe exited {res.returncode}:\n{res.stderr}")
    return {"cli.non_finite_not_refused": not_refused,
            "displacement.lib_spec_misses": check.spec_misses(json.loads(res.stdout), refs)}


def per_layer(data: dict, env: dict, root: str, args, refs: check.Refs) -> dict[str, float]:
    metrics = aggregate(data["dumps"])
    metrics.update(setup_layers(env))
    metrics.update(known_defects(env, root, refs))
    untraced = sum(u for u, _ in data["pairs"])
    traced = sum(t for _, t in data["pairs"])
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.ops"] = len(data["pairs"])
    metrics["trace.spans"] = sum(len(d["spans"]) for d in data["dumps"])
    path = os.path.join(root, RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for d in data["dumps"]:
            for span in d["spans"]:
                fh.write(json.dumps(span) + "\n")
    note(f"spans written to {path}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "necoh", "cli.py")):
        note(f"no necoh sources under {root}/src; run from the root of a checkout")
        return 1
    os.makedirs(os.path.join(root, RUN_DIR), exist_ok=True)
    env = _env(root)
    refs = check.Refs()
    try:
        _probe(args.workload, env)  # untimed: writes the bytecode caches of a fresh checkout
        if not args.trace:
            setup_s = setup_time(args.workload, env)
        if args.workload == "cli-rates":
            data = cli_rates(args, env, root, refs)
        else:
            data = in_worker(args, env, root)
        if args.trace:
            metrics = per_layer(data, env, root, args, refs)
        else:
            metrics = end_to_end(data, setup_s)
        units = declared_units(args.trace)
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                               "do not match BENCHMARK.json")
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        note(f"benchmark run failed: {exc}")
        return 1
    for line in data["notes"][:20]:
        note(line)
    statuses = [s for _, _, s, _ in data["ops"]]
    result = {
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": sum(1 for s in statuses if s != "ok"),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
