"""Fresh-interpreter side of the benchmark; ``run.py`` starts it.

    python perfbench/worker.py probe --workload W
        import necoh.cli, do the workload's lazy set-up, print "ready", exit
    python perfbench/worker.py run --workload W --seed N --seconds S --trace T --out FILE
        the same set-up, print "ready", then run the workload's ops in this
        process (``sweep`` and ``displacement``) and write the results to FILE
    python perfbench/worker.py spec-probe
        print, as JSON, the exact-kernel displacement rates at the library
        default spec for ``workloads.SPEC_PROBE_F0``
    python perfbench/worker.py bootstrap FILE N ARGV...
        install the tracer, call necoh.cli.main(ARGV), write the spans to
        FILE and exit with main's code (the traced ``cli-rates`` child)

necoh must be importable (``run.py`` puts the checkout's ``src`` on
PYTHONPATH). Sweep output files go to $NECOH_OUTPUT_DIR.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def _set_up(workload: str):
    import necoh.cli
    import necoh.displacement as dis
    import necoh.surface as surface

    if workload == "displacement":
        # first calls fill numpy's and the kernel grid's lazy state
        trap = surface.LateralTrap.isotropic_ghz(6.4)
        for mode in dis.KernelMode:
            dis.gamma_displacement(trap, mode=mode)
    return necoh.cli, dis, surface


def _output_file(op: dict) -> str | None:
    argv = op.get("argv", ())
    if "--output" not in argv:
        return None
    return os.path.join(os.environ["NECOH_OUTPUT_DIR"], argv[argv.index("--output") + 1])


def _execute(op: dict, mods) -> tuple[float, float, int, object, int]:
    """Run one op: wall s, CPU s, exit code, output and bytes written."""
    cli, dis, surface = mods
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    if op["kind"] == "lib":
        trap = surface.LateralTrap.isotropic_ghz(float(op["f0"]))
        spec = cli.CLI_SPEC if op["spec"] == "cli" else dis.DEFAULT_SPEC
        output = dis.gamma_displacement(trap, mode=dis.KernelMode(op["kernel"]), spec=spec)
        rc = 0
    else:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op["argv"])
        output = out.getvalue()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    nbytes = len(output.encode("utf-8")) if op["kind"] != "lib" else 0
    path = _output_file(op)
    if path is not None and rc == 0:
        with open(path, encoding="utf-8", newline="") as fh:
            output = fh.read()
        os.remove(path)
        nbytes += len(output.encode("utf-8"))
    return wall, cpu, rc, output, nbytes


def _traced_executor(tracer, mods):
    def execute_traced(op: dict, op_id: int):
        tracer.op = op_id
        tracer.install()
        try:
            result = _execute(op, mods)
        finally:
            tracer.restore()
        tracer.counts["cli.output_bytes"] += result[4]
        return result
    return execute_traced


def _bootstrap(spans_path: str, op_id: int, argv: list[str]) -> int:
    import check
    import necoh.cli
    from tracer import Tracer

    tracer = Tracer(check.Refs())
    tracer.op = op_id
    tracer.install()
    try:
        return necoh.cli.main(argv)
    finally:
        tracer.restore()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


def _spec_probe() -> int:
    import necoh.displacement as dis
    import necoh.surface as surface
    from workloads import SPEC_PROBE_F0

    print(json.dumps([dis.gamma_displacement(surface.LateralTrap.isotropic_ghz(float(f0)),
                                             mode=dis.KernelMode.EXACT)[0]
                      for f0 in SPEC_PROBE_F0]))
    return 0


def main() -> int:
    if sys.argv[1:2] == ["spec-probe"]:
        return _spec_probe()
    if sys.argv[1:2] == ["bootstrap"]:
        spans_path, op_id, *argv = sys.argv[2:]
        return _bootstrap(spans_path, int(op_id), argv)
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    mods = _set_up(args.workload)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0
    import check
    import loops
    from tracer import Tracer

    refs = check.Refs()
    execute = lambda op: _execute(op, mods)  # noqa: E731
    if args.trace:
        tracer = Tracer(refs)
        result = loops.traced(args.workload, args.seed, execute,
                              _traced_executor(tracer, mods), refs)
        result["dumps"] = [tracer.dump()]
    else:
        result = loops.timed(args.workload, args.seed, args.seconds, execute, refs)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
