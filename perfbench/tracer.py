"""Spans and counters at necoh's layer boundaries, installed from outside.

``Tracer.install`` wraps the public function at each boundary and rebinds
every name that refers to it in the modules that import it by name
(``necoh.cli``, ``necoh.report``, ``necoh.modulation``,
``necoh.displacement``, ``necoh.numerics`` and ``necoh.photon``), so calls
made inside necoh go through the wrapper too. ``restore`` puts the
originals back. Nothing in necoh changes.

A span is ``[name, start, end, parent, op]``; spans stay in memory until
``dump``. Panels are counted by wrapping the integrand handed to
``integrate_adaptive`` (one integrand call is one GK15 panel), and
oscillatory evaluations by wrapping the envelope handed to
``integrate_oscillatory_batch``.

A boundary function that necoh no longer has, or a rate call whose
arguments no longer bind to its signature, raises: a broken trace fails
instead of reading 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

IMPORTERS = ("necoh.cli", "necoh.report", "necoh.modulation",
             "necoh.displacement", "necoh.numerics", "necoh.photon")

# span name, defining module, function
TARGETS = (
    ("cli.main", "necoh.cli", "main"),
    ("report.build_report", "necoh.report", "build_report"),
    ("photon", "necoh.photon", "gamma_vacuum"),
    ("photon", "necoh.photon", "gamma_purcell"),
    ("displacement.gamma_displacement", "necoh.displacement", "gamma_displacement"),
    ("displacement.u_p_average", "necoh.displacement", "u_p_average"),
    ("modulation.gamma_modulation", "necoh.modulation", "gamma_modulation"),
    ("modulation.d_integral", "necoh.modulation", "d_integral"),
    ("numerics.integrate_adaptive", "necoh.numerics", "integrate_adaptive"),
    ("numerics.integrate_oscillatory_batch", "necoh.numerics",
     "integrate_oscillatory_batch"),
)
# channel name in refs.json of each traced rate function
_RATE_CHANNELS = {"displacement.gamma_displacement": "displacement_{mode}",
                  "modulation.gamma_modulation": "modulation"}

PER_LAYER = (
    "cli.main.calls", "cli.parse_s", "cli.render_s", "cli.output_bytes",
    "report.build_report.calls", "report.build_report.self_s",
    "photon.s",
    "displacement.gamma_displacement.calls", "displacement.gamma_displacement.s",
    "displacement.u_p_average.calls", "displacement.u_p_average.s",
    "displacement.err_over_tol", "displacement.actual_over_err",
    "modulation.gamma_modulation.calls", "modulation.gamma_modulation.s",
    "modulation.d_integral.calls", "modulation.d_integral.s",
    "modulation.err_over_tol", "modulation.actual_over_err",
    "numerics.integrate_adaptive.calls", "numerics.integrate_adaptive.self_s",
    "numerics.panels", "numerics.integrand_evals",
    "numerics.integrate_oscillatory_batch.calls", "numerics.integrate_oscillatory_batch.s",
    "numerics.oscillatory_evals", "numerics.convergence_errors",
)


class Tracer:
    def __init__(self, refs=None) -> None:
        self.refs = refs
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _adaptive(self, name: str, fn):
        counts = self.counts
        error_type = importlib.import_module("necoh.numerics").ConvergenceError
        span = self._span(name, fn)

        def counted(f):
            def integrand(x):
                counts["numerics.panels"] += 1
                counts["numerics.integrand_evals"] += x.size
                return f(x)
            return integrand

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            try:
                return span(counted(f), *args, **kwargs)
            except error_type:
                counts["numerics.convergence_errors"] += 1
                raise
        return wrapper

    def _oscillatory(self, name: str, fn):
        counts = self.counts
        span = self._span(name, fn)

        def counted(env):
            def envelope(x):
                y = env(x)
                counts["numerics.oscillatory_evals"] += getattr(y, "size", 1)
                return y
            return envelope

        @functools.wraps(fn)
        def wrapper(env, *args, **kwargs):
            return span(counted(env), *args, **kwargs)
        return wrapper

    def _rate_hook(self, name: str, fn):
        """Record err/(rel_tol |gamma|) and |gamma - reference| / err."""
        sig = inspect.signature(fn)
        layer = name.split(".")[0]
        default_material = sig.parameters["material"].default

        def hook(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            gamma, err = result
            spec = bound.arguments["spec"]
            trap = bound.arguments["trap"]
            custom = (bound.arguments["state"] is not None
                      or bound.arguments["material"] is not default_material)
            mode = bound.arguments["mode"].value if "mode" in bound.arguments else ""
            if gamma != 0.0:
                self.samples[f"{layer}.err_over_tol"].append(err / (spec.rel_tol * abs(gamma)))
            if self.refs is None or custom or err <= 0.0:
                return
            ref = self.refs.bare(trap.omega_x / (2.0 * math.pi * 1e9),
                                 _RATE_CHANNELS[name].format(mode=mode))
            if ref is not None:
                self.samples[f"{layer}.actual_over_err"].append(abs(gamma - ref) / err)
        return hook

    def _wrapper_for(self, name: str, fn):
        if name == "numerics.integrate_adaptive":
            return self._adaptive(name, fn)
        if name == "numerics.integrate_oscillatory_batch":
            return self._oscillatory(name, fn)
        if name in _RATE_CHANNELS:
            return self._span(name, fn, self._rate_hook(name, fn))
        return self._span(name, fn)

    # -- install / restore ------------------------------------------------
    def install(self) -> None:
        modules = [importlib.import_module(m) for m in IMPORTERS]
        cli = modules[0]
        targets = [(n, getattr(importlib.import_module(m), a)) for n, m, a in TARGETS]
        targets += [("cli.render", fn) for attr, fn in vars(cli).items()
                    if attr.startswith("render_") and callable(fn)]
        for name, orig in targets:
            wrapper = self._wrapper_for(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "samples": dict(self.samples)}


def aggregate(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one or more ``Tracer.dump`` results."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    counts: Counter = Counter()
    samples: dict[str, list[float]] = defaultdict(list)
    parse_s = 0.0
    for d in dumps:
        spans = d["spans"]
        child = [0.0] * len(spans)
        first_child = [None] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                if first_child[parent] is None:
                    first_child[parent] = start
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[i]
            if name == "cli.main":
                parse_s += (first_child[i] if first_child[i] is not None else end) - start
        counts.update(d["counts"])
        for key, vals in d["samples"].items():
            samples[key].extend(vals)

    out: dict[str, float] = {}
    for key in PER_LAYER:
        base, _, stat = key.rpartition(".")
        if stat == "calls":
            out[key] = calls[base]
        elif stat == "self_s":
            out[key] = self_time[base]
        elif stat == "s":
            out[key] = total[base]
        elif key == "cli.render_s":
            out[key] = total["cli.render"]
        elif key == "cli.parse_s":
            out[key] = parse_s
        elif stat == "err_over_tol":
            out[key] = statistics.median(samples[key]) if samples[key] else 0.0
        elif stat == "actual_over_err":
            out[key] = max(samples[key], default=0.0)
        else:
            out[key] = counts[key]
    return out
