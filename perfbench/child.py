"""One repetition of one benchmark workload, in a fresh process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py WORKLOAD PARAMS_JSON T0 OUTDIR CPU [TRACE_FILE]

``T0`` is the parent's ``CLOCK_MONOTONIC`` reading just before it started
this process, so every time below counts interpreter start-up and
``import stefansim``.  The process pins itself to ``CPU``.  The last stdout line is a JSON record of the
repetition.  Without ``TRACE_FILE`` only the once-per-simulation
boundaries ``init_state``, ``simulate``, ``energy_table`` and
``mixed_cnorm`` are timed, as the harness module binds them; with it,
every function in ``spans.TRACED`` is wrapped and the spans are written
to ``TRACE_FILE`` at exit.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from checks import sample_q


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Boundaries:
    """Start/end times and results of the once-per-simulation calls."""

    def __init__(self, harness):
        self.calls = []   # (name, start, end, result)
        for name in ("init_state", "simulate", "energy_table", "mixed_cnorm"):
            setattr(harness, name, self._wrap(name, getattr(harness, name)))

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            start = now()
            result = fn(*args, **kwargs)
            self.calls.append((name, start, now(), result))
            return result
        return timed

    def of(self, name):
        return [c for c in self.calls if c[0] == name]


def _final_fields(traj) -> dict:
    last = traj.snaps[-1]
    return {"q": last["q"], "h": last["h"], "v": last["v"]}


def _finite(arrays) -> bool:
    import numpy as np

    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def run_curved(harness, params, outdir: Path) -> dict:
    config = harness.build_config(params)
    traj, manifest = harness.run_simulation(config, outdir=outdir,
                                            settings=params)
    end = now()
    fields = _final_fields(traj)
    return {
        "end": end,
        "status": manifest.status,
        "flags": list(traj.flags),
        "steps": config.n_steps if traj.status == "completed" else None,
        "min_margin": float(min(traj.margins)),
        "finite": _finite(fields.values()),
        "manifest_written": (outdir / "manifest.json").is_file(),
        "final_h": fields["h"].tolist(),
        "final_q_sample": sample_q(fields["q"]),
    }


def run_sweep(harness, params, bounds: Boundaries) -> dict:
    settings = {k: v for k, v in params.items() if k != "ladder"}
    config = harness.build_config(settings)
    result = harness.sweep_kappa(config, params["ladder"])
    end = now()
    trajs = [c[3] for c in bounds.of("simulate")]
    extras = result.extras
    return {
        "end": end,
        "status": "completed" if all(s == "completed" for s in result.statuses)
        else "failed",
        "statuses": result.statuses,
        "flags": [list(t.flags) for t in trajs],
        "uniform_bound": extras["uniform_bound"],
        "order_ok": extras["order_ok"],
        "lower_order_bounded": extras["lower_order_bounded"],
        "monotone": result.monotone,
        "steps": config.n_steps * len(trajs),
        "finite": _finite([a for t in trajs for a in _final_fields(t).values()])
        and _finite([result.distances, result.final_energies]),
    }


def run_mms(harness, params) -> dict:
    from stefansim.numerics import Grid

    case = harness.ManufacturedCase(Grid(params["nx"], params["ny"]),
                                    flat=False, amp=params["amp"])
    error = case.run_error(params["nx"], params["ny"], params["dt"],
                           params["t_end"])
    return {
        "end": now(),
        "status": "completed",
        "steps": round(params["t_end"] / params["dt"]),
        "mms_error": error,
        "finite": math.isfinite(error),
    }


def main(argv) -> None:
    workload, params, t0, outdir = argv[1], json.loads(argv[2]), float(argv[3]), Path(argv[4])
    cpu = int(argv[5])
    trace_file = argv[6] if len(argv) > 6 else None
    os.sched_setaffinity(0, {cpu})
    import_start = now()
    import stefansim
    from stefansim import harness
    import_s = now() - import_start

    tracer = None
    if trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(stefansim)
    bounds = Boundaries(harness)

    if workload.startswith("run-curved"):
        out = run_curved(harness, params, outdir)
    elif workload == "sweep-kappa-dense":
        out = run_sweep(harness, params, bounds)
    elif workload == "mms-curved":
        out = run_mms(harness, params)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    end = out.pop("end")

    inits = bounds.of("init_state")
    sims = bounds.of("simulate")
    if sims:
        # time inside simulate minus the init_state each one opens with
        stepping = 0.0
        for _, s_start, s_end, _ in sims:
            inner = [c for c in inits if s_start <= c[1] and c[2] <= s_end]
            stepping += (s_end - s_start) - sum(c[2] - c[1] for c in inner)
    else:
        # run_error steps right after its init_state returns
        stepping = end - inits[0][2]
    analysis = sum(c[2] - c[1] for c in bounds.calls
                   if c[0] in ("energy_table", "mixed_cnorm"))
    out.update({
        "wall_s": end - t0,
        "setup_s": inits[0][2] - t0,
        "ms_per_step": 1e3 * stepping / out["steps"] if out["steps"] else None,
        "analysis_s": analysis,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "cpu": cpu,
        "stefansim_file": stefansim.__file__,
    })
    if tracer is not None:
        tracer.dump(trace_file)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
