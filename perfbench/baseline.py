"""Record the benchmark's baseline: every metric on every workload.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

Run from the root of a checkout. It makes two sets of timed runs of every
workload, one run per seed: seeds 1..N in the first set, N+1..2N in the
second, the second set after the first has finished on every workload. For
each set and end-to-end metric it reports the median, the quartiles and
their spread (Q3 - Q1 over the median, as ``statistics.quantiles(values,
n=4)`` gives them), and for each metric how much worse the second median is
than the first, against the metric's bound in BENCHMARK.json. It then makes
two traced runs of seed 1 per workload, reports their per-layer metrics and
whether every count repeated exactly, and records the run environment.
Takes about 40 minutes with ``run_seconds`` 20.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import BENCHMARK_JSON, THREAD_ENV  # noqa: E402

# per-layer metrics that are counts of work: they must repeat exactly
_TIMED_SUFFIXES = ("_s", ".s", "over_tol", "over_err", "overhead_ratio")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, check=True)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    # which percentile op_tail_s is, as run.py reports it
    out["ops_note"] = [line for line in res.stderr.splitlines() if "op_tail_s is" in line]
    print(workload, seed, trace, out["correct"], out["attempted"], out["failed"],
          {k: round(v["value"], 6) for k, v in out["metrics"].items()} if not trace else "",
          file=sys.stderr, flush=True)
    return out


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def _environment() -> dict:
    import numpy
    import scipy

    try:
        # the last commit that changed the measured code, not the benchmark
        commit = subprocess.run(["git", "log", "-1", "--format=%H", "--", "src"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
        "src_commit": commit,
    }


def _worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first (< 0: better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seed_sets = [list(range(1, args.seeds + 1)), list(range(args.seeds + 1, 2 * args.seeds + 1))]
    runs = {w["name"]: [] for w in spec["workloads"]}
    for seeds in seed_sets:
        for name in runs:
            runs[name].append([_run(name, seed, seconds, 0) for seed in seeds])

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        traced = [_run(name, 1, seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if not k.endswith(_TIMED_SUFFIXES)} for t in traced]
        sets = []
        for seeds, set_runs in zip(seed_sets, runs[name]):
            sets.append({
                "seeds": seeds,
                "correct": all(r["correct"] for r in set_runs),
                "attempted": [r["attempted"] for r in set_runs],
                "failed": [r["failed"] for r in set_runs],
                "ops_note": [r["ops_note"] for r in set_runs],
                "end_to_end": {m["name"]: _summary([r["metrics"][m["name"]]["value"]
                                                    for r in set_runs])
                               for m in spec["end_to_end"]},
            })
        agreement = {}
        for m in spec["end_to_end"]:
            worse = _worse_by(sets[0]["end_to_end"][m["name"]]["median"],
                              sets[1]["end_to_end"][m["name"]]["median"], m["better"])
            agreement[m["name"]] = {"second_worse_by": worse, "bound": m["bound"],
                                    "within_bound": worse <= m["bound"]}
        workloads[name] = {
            "why": w["why"],
            "correct": all(s["correct"] for s in sets) and all(t["correct"] for t in traced),
            "sets": sets,
            "agreement": agreement,
            "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "per_layer_counts_repeat": counts[0] == counts[1],
        }
    out = {"run_seconds": seconds, "environment": _environment(), "workloads": workloads}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, wl in workloads.items():
        for metric in wl["agreement"]:
            a, b = (s["end_to_end"][metric] for s in wl["sets"])
            print(f"{name:13s} {metric:13s} median {a['median']:.6g} / {b['median']:.6g} "
                  f"spread {a['spread']:.4f} / {b['spread']:.4f} "
                  f"second worse by {wl['agreement'][metric]['second_worse_by']:+.4f}")
        print(f"{name:13s} correct: {wl['correct']}; "
              f"per-layer counts repeat: {wl['per_layer_counts_repeat']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
