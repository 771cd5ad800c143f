"""The closed loop with one client, shared by every workload.

``execute(op)`` runs one op and returns ``(wall_s, cpu_s, exit_code, output,
bytes_written)``; the caller decides whether that is an in-process call or a
child process. Outputs are judged by ``check.check`` only after the timed
loop ends, so judging costs no op time.

An op result is ``(wall_s, cpu_s, status, well_formed)``. ``well_formed`` is
false for the malformed requests of ``cli-rates``: they count in ``ok_ratio``
but not in the time metrics, so a fix that makes necoh refuse them sooner
does not read as a speed-up.
"""
from __future__ import annotations

import time

import check
import workloads


def _judge(results: list[tuple], refs: check.Refs) -> tuple[list, list]:
    ops, notes = [], []
    for op, wall, cpu, rc, output, _ in results:
        status, why = check.check(op, rc, output, refs)
        ops.append((wall, cpu, status, op["check"] != "usage"))
        if status != "ok":
            notes.append(f"{status}: {op.get('argv') or op}: {why}")
    return ops, notes


def timed(workload: str, seed: int, seconds: float, execute, refs: check.Refs) -> dict:
    """Whole rounds of ops until ``seconds`` have passed.

    For the workloads in ``workloads.REPEATED`` the first op then runs once
    more, untimed, and its exit code and output must not change.
    """
    results = []
    start = time.perf_counter()
    for rnd in workloads.rounds(workload, seed):
        if results and time.perf_counter() - start >= seconds:
            break
        for op in rnd:
            results.append((op, *execute(op)))
    ops, notes = _judge(results, refs)
    if workload in workloads.REPEATED:
        op, _, _, rc, output, _ = results[0]
        again = execute(op)
        if ops[0][2] == "ok" and (again[2], again[3]) != (rc, output):
            ops[0] = (*ops[0][:2], "wrong", ops[0][3])
            notes.append(f"wrong: {op['argv']}: repeating it did not give identical output")
    return {"ops": ops, "notes": notes}


def traced(workload: str, seed: int, execute, execute_traced, refs: check.Refs) -> dict:
    """The first ``TRACE_OPS`` ops, each run untraced and traced.

    ``execute_traced(op, op_id)`` runs the op under the tracer. The two runs
    alternate in order so warm caches favour neither; their outputs must be
    identical. ``pairs`` holds (untraced, traced) wall times.
    """
    results, pairs, differ = [], [], []
    for i, op in enumerate(workloads.first_ops(workload, seed, workloads.TRACE_OPS[workload])):
        runs = {}
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            runs[is_traced] = execute_traced(op, i) if is_traced else execute(op)
        results.append((op, *runs[True]))
        pairs.append((runs[False][0], runs[True][0]))
        if runs[False][2:4] != runs[True][2:4]:
            differ.append(i)
    ops, notes = _judge(results, refs)
    for i in differ:
        ops[i] = (*ops[i][:2], "wrong", ops[i][3])
        notes.append(f"wrong: op {i}: traced output differs from untraced output")
    return {"ops": ops, "notes": notes, "pairs": pairs}
