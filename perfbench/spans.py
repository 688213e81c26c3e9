"""In-memory span recorder for the traced benchmark run.

Every public function of interest is wrapped under every name a module
binds it to (``stepper.metric_bundle`` as well as ``geometry.metric_bundle``,
because the package uses ``from .x import f``).  A span is
``(name id, start, end, parent span index)``; spans stay in memory and are
written out once, when the run ends.  ``summarize`` turns a span list into
the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

#: (layer, module, attribute) of every traced function.  A dotted attribute
#: is a method, patched on its class.
TRACED = (
    ("stepper", "stepper", "init_state"),
    ("stepper", "stepper", "advance"),
    ("stepper", "stepper", "initial_time_derivatives"),
    ("geometry", "geometry", "harmonic_extend"),
    ("geometry", "geometry", "metric_bundle"),
    ("geometry", "geometry", "mean_curvature"),
    ("geometry", "geometry", "check_graph_condition"),
    ("operators", "operators", "gauge_deviation"),
    ("operators", "operators", "compute_velocity"),
    ("operators", "operators", "transformed_laplacian_expanded"),
    ("elliptic", "elliptic", "StripSolver.__init__"),
    ("elliptic", "elliptic", "StripSolver.solve"),
    ("elliptic", "elliptic", "solve_transformed_poisson"),
    ("mollifier", "mollifier", "smooth_double"),
    ("mollifier", "mollifier", "smooth_horizontal"),
    ("mollifier", "mollifier", "smooth_2d"),
    ("initdata", "initdata", "build_regularized_datum"),
    ("initdata", "initdata", "taylor_margin"),
    ("initdata", "initdata", "compat_residuals"),
    ("numerics", "numerics", "tangential_derivative"),
    ("numerics", "numerics", "vertical_derivative"),
    ("analysis", "analysis", "energy_table"),
    ("analysis", "analysis", "mixed_cnorm"),
    ("analysis", "analysis", "geometric_identities"),
    ("harness", "harness", "simulate"),
    ("harness", "harness", "ManufacturedCase.source_q"),
    ("harness", "harness", "ManufacturedCase.source_h"),
    ("harness", "harness", "write_energy_csv"),
    ("harness", "harness", "write_interface_csv"),
    ("harness", "harness", "RunManifest.write"),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in TRACED)
ADVANCE = "stepper.advance"
#: kernels whose call count per time step is reported
PER_STEP = ("numerics.tangential_derivative", "numerics.vertical_derivative")


def _per_layer():
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.ms", "ms"))
        out.append((f"{name}.self_s", "s"))
    out += [
        (f"{ADVANCE}.p99_ms", "ms"),
        ("elliptic.solve_transformed_poisson.iterations", "count"),
        ("elliptic.solve_transformed_poisson.residual", "1"),
        ("analysis.energy_table.ms_per_snapshot", "ms"),
        ("harness.RunManifest.write.bytes", "B"),
        ("import.s", "s"),
        ("trace.overhead_s", "s"),
    ]
    out += [(f"{name}.per_step", "count") for name in PER_STEP]
    return tuple(out)


#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = _per_layer()

#: Functions that only some workloads call.  Elsewhere their times read 0
#: on every run, so BENCHMARK.json lists only their call counts; the times
#: are still printed and recorded.
PARTIAL = (
    "stepper.initial_time_derivatives", "geometry.mean_curvature",
    "elliptic.solve_transformed_poisson", "mollifier.smooth_double",
    "mollifier.smooth_horizontal", "mollifier.smooth_2d",
    "initdata.build_regularized_datum", "initdata.compat_residuals",
    "analysis.energy_table", "analysis.mixed_cnorm",
    "analysis.geometric_identities", "harness.simulate",
    "harness.ManufacturedCase.source_q", "harness.ManufacturedCase.source_h",
    "harness.write_energy_csv", "harness.write_interface_csv",
    "harness.RunManifest.write",
)

#: The per-layer metrics BENCHMARK.json lists: every time that no workload
#: leaves at 0, and every count.
LISTED = tuple(
    (name, unit) for name, unit in PER_LAYER
    if unit not in ("s", "ms") or not any(name.startswith(f + ".") for f in PARTIAL)
)


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []
        self.extras: dict = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extra=None):
        """Return ``fn`` wrapped in a span; ``extra(args, result)`` adds values."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if extra is not None:
                self.extras[idx] = extra(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function of ``TRACED`` under each name bound to it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for layer, modname, attr in TRACED:
            module = sys.modules[f"{package.__name__}.{modname}"]
            name = f"{layer}.{attr}"
            extra = _EXTRAS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], extra))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "extras": {str(k): v for k, v in self.extras.items()}}, fh)


def _poisson_extra(args, result):
    _, residual, iterations = result
    return {"iterations": int(iterations), "residual": float(residual)}


def _table_extra(args, result):
    return {"snapshots": len(result)}


def _manifest_extra(args, result):
    return {"bytes": result.stat().st_size}


_EXTRAS = {
    "elliptic.solve_transformed_poisson": _poisson_extra,
    "analysis.energy_table": _table_extra,
    "harness.RunManifest.write": _manifest_extra,
}


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nesting_errors(spans) -> int:
    """Number of spans that do not lie inside their parent's interval."""
    bad = 0
    for _, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                bad += 1
    return bad


def closure_gap(spans, names) -> float:
    """|sum of self times under every ``advance`` span - their total duration|.

    The self times of an ``advance`` span and all of its descendants must
    add up to its duration; the gap measures how far the recorded tree is
    from that.  Nested ``advance`` spans are counted once, through the
    outermost.
    """
    selfs = self_times(spans)
    root_ids = {i for i, n in enumerate(names) if n == ADVANCE}
    top = [-1] * len(spans)   # outermost advance span above each span, or -1
    total = 0.0
    covered = 0.0
    for idx, (nid, start, end, parent) in enumerate(spans):
        above = top[parent] if parent >= 0 else -1
        if above < 0 and nid in root_ids:
            top[idx] = idx
            total += end - start
        else:
            top[idx] = above
        if top[idx] >= 0:
            covered += selfs[idx]
    return abs(covered - total)


def summarize(names, spans, extras) -> dict:
    """Per-layer metrics (without import and overhead) from one traced run."""
    selfs = self_times(spans)
    by_name: dict = {name: [] for name in SPAN_NAMES}
    for idx, (nid, _, _, _) in enumerate(spans):
        by_name.setdefault(names[nid], []).append(idx)
    out = {}
    for name in SPAN_NAMES:
        idxs = by_name[name]
        durations = [spans[i][2] - spans[i][1] for i in idxs]
        out[f"{name}.calls"] = len(idxs)
        out[f"{name}.ms"] = 1e3 * statistics.median(durations) if durations else 0.0
        out[f"{name}.self_s"] = sum(selfs[i] for i in idxs)

    steps = [spans[i][2] - spans[i][1] for i in by_name[ADVANCE]]
    if len(steps) > 1:
        steps = statistics.quantiles(steps, n=100, method="inclusive")[98:99]
    out[f"{ADVANCE}.p99_ms"] = 1e3 * steps[0] if steps else 0.0

    poisson = [extras[i] for i in by_name["elliptic.solve_transformed_poisson"]
               if i in extras]
    out["elliptic.solve_transformed_poisson.iterations"] = sum(
        p["iterations"] for p in poisson)
    out["elliptic.solve_transformed_poisson.residual"] = max(
        (p["residual"] for p in poisson), default=0.0)

    tables = by_name["analysis.energy_table"]
    snapshots = sum(extras[i]["snapshots"] for i in tables if i in extras)
    table_s = sum(spans[i][2] - spans[i][1] for i in tables)
    out["analysis.energy_table.ms_per_snapshot"] = (
        1e3 * table_s / snapshots if snapshots else 0.0)

    out["harness.RunManifest.write.bytes"] = sum(
        extras[i]["bytes"] for i in by_name["harness.RunManifest.write"]
        if i in extras)

    # kernel calls made while some time step was open
    inside = [False] * len(spans)
    advance_ids = {i for i, n in enumerate(names) if n == ADVANCE}
    for idx, (nid, _, _, parent) in enumerate(spans):
        inside[idx] = parent >= 0 and (inside[parent]
                                       or spans[parent][0] in advance_ids)
    n_steps = len(by_name[ADVANCE])
    for name in PER_STEP:
        calls = sum(1 for i in by_name[name] if inside[i])
        out[f"{name}.per_step"] = calls / n_steps if n_steps else 0.0
    return out
