"""stefansim benchmark: one workload, closed loop, fresh process per repetition.

Run from the repository root::

    python3 perfbench/run.py --workload run-curved-64 --seed 1 --seconds 30 --trace 0

``--workload all`` interleaves the four workloads in one run.  Each
repetition is one simulation in a new ``python3`` process with BLAS and
OpenMP capped at one thread, so every repetition pays import, the solver
cache and the mollifier symbol tables the way a command-line user does.
Repetitions run back to back (one at a time), pinned to each CPU in turn,
until ``--seconds`` have passed; the medians over repetitions are
reported.  ``--trace 1`` alternates untraced and traced repetitions and
reports per-layer metrics from the traced ones.  The last stdout line is one JSON object; the full record,
with the environment block, goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
CPUS = sorted(os.sched_getaffinity(0))

#: Fixed settings of each workload; the seed adds the amplitudes.
WORKLOADS = {
    "run-curved-64": {"grid.nx": 64, "grid.ny": 129, "dt": 2.5e-5,
                      "t_end": 0.01, "snapshot_every": 40},
    "run-curved-128": {"grid.nx": 128, "grid.ny": 257, "dt": 6.25e-6,
                       "t_end": 0.00125, "snapshot_every": 40},
    "sweep-kappa-dense": {"grid.nx": 64, "grid.ny": 129, "dt": 2.5e-5,
                          "t_end": 0.0025, "snapshot_every": 5,
                          "ladder": [0.2, 0.1, 0.05, 0.025]},
    "mms-curved": {"nx": 64, "ny": 129, "dt": 2.5e-5, "t_end": 0.0025},
}

#: (name, unit) of the end-to-end metrics in BENCHMARK.json; every workload
#: reports each of them and none is ever 0.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("ms_per_step", "ms"),
              ("peak_rss_mb", "MB"))
#: Printed and recorded too, but only meaningful on some workloads.
EXTRA = (("analysis_s", "s"), ("mms_error", "1"))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_REPS = 3          # per workload and kind (untraced / traced)
DEADLINE_S = 170.0    # the whole run, warm-up included, ends before this
CHILD_TIMEOUT_S = 120.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def make_params(workload: str, seed: int) -> dict:
    """The program's inputs for ``workload``; the same seed gives the same."""
    rng = random.Random(seed)
    h0 = rng.uniform(*checks.H0_RANGE)
    amp = rng.uniform(*checks.MMS_RANGE)
    params = dict(WORKLOADS[workload])
    if workload == "mms-curved":
        params["amp"] = amp
    else:
        params.update({"data.h0_amplitude": h0, "compat.override": True})
    return params


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def run_child(workload: str, params: dict, tag: str, cpu: int, trace_file,
              deadline: float):
    """One repetition in a fresh process; returns (record or None, seconds, error)."""
    rep_dir = OUT / tag
    shutil.rmtree(rep_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, json.dumps(params)]
    timeout = min(CHILD_TIMEOUT_S, deadline - now())
    start = now()
    cmd += [repr(start), str(rep_dir), str(cpu)]
    cmd += [str(trace_file)] if trace_file else []
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, now() - start, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    elapsed = now() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, elapsed, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    try:
        rec = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, elapsed, "unreadable record"
    if not rec.get("stefansim_file", "").startswith(str(ROOT / "src")):
        return None, elapsed, f"measured {rec.get('stefansim_file')}, not this checkout"
    return rec, elapsed, None


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class WorkloadRun:
    """Repetitions of one workload and what they measured."""

    def __init__(self, name: str, seed: int, trace: bool, reference: dict):
        self.name = name
        self.params = make_params(name, seed)
        self.tag = f"{name}-seed{seed}"
        self.trace = trace
        self.reference = reference
        self.trace_file = OUT / f"trace-{self.tag}.json"
        self.reps = []   # dicts: traced, seconds, record, reasons, layers

    def kinds(self):
        return (False, True) if self.trace else (False,)

    def next_kind(self) -> bool:
        counts = {k: sum(1 for r in self.reps if r["traced"] == k)
                  for k in self.kinds()}
        return min(self.kinds(), key=lambda k: (counts[k], k))

    def done_minimum(self) -> bool:
        return all(sum(1 for r in self.reps if r["traced"] == k) >= MIN_REPS
                   for k in self.kinds())

    def run_once(self, deadline: float) -> None:
        traced = self.next_kind()
        trace_file = self.trace_file if traced else None
        if trace_file:
            trace_file.unlink(missing_ok=True)
        cpu = CPUS[len(self.reps) // len(self.kinds()) % len(CPUS)]
        rec, seconds, error = run_child(self.name, self.params,
                                        f"{self.tag}-rep{len(self.reps)}", cpu,
                                        trace_file, deadline)
        reasons = [error] if error else checks.check(self.name, self.params,
                                                     rec, self.reference)
        layers = None
        if traced and not reasons:
            layers, trace_reasons = self.read_trace(rec)
            reasons += trace_reasons
        self.reps.append({"traced": traced, "seconds": seconds, "record": rec,
                          "reasons": reasons, "layers": layers})

    def read_trace(self, rec: dict):
        data = json.loads(self.trace_file.read_text())
        names, span_list, extras = data["names"], data["spans"], {
            int(k): v for k, v in data["extras"].items()}
        reasons = []
        bad = spans.nesting_errors(span_list)
        if bad:
            reasons.append(f"{bad} spans outside their parent")
        gap = spans.closure_gap(span_list, names)
        if gap > 1e-6:
            reasons.append(f"advance self times miss its total by {gap:.3g} s")
        layers = spans.summarize(names, span_list, extras)
        layers["import.s"] = rec["import_s"]
        return layers, reasons

    # -- results --------------------------------------------------------

    def good(self, traced: bool) -> list:
        return [r for r in self.reps if r["traced"] == traced and not r["reasons"]]

    def end_to_end(self) -> dict:
        """Median, quartiles and count of every end-to-end and extra metric."""
        out = {}
        good = [r["record"] for r in self.good(False)]
        for name, unit in END_TO_END + EXTRA:
            values = [rec[name] for rec in good if rec.get(name) is not None]
            if values:
                q1, med, q3 = quartiles(values)
                out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                             "n": len(values)}
        return out

    def per_layer(self) -> dict:
        traced = self.good(True)
        # untraced and traced repetitions alternate, each pair on one CPU, so
        # the tracing overhead is the median difference within pairs
        pairs = [(u, t) for u, t in zip(self.reps[::2], self.reps[1::2])
                 if not (u["reasons"] or t["reasons"])]
        if not pairs:
            return {}
        out = {}
        for name, unit in spans.PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(
                    t["record"]["wall_s"] - u["record"]["wall_s"] for u, t in pairs)
            else:
                # median_low: a value one traced repetition really produced
                value = statistics.median_low(r["layers"][name] for r in traced)
            out[name] = {"value": value, "unit": unit}
        return out

    def failed(self) -> int:
        return sum(1 for r in self.reps if r["reasons"])


def print_table(run: WorkloadRun, e2e: dict, layers: dict) -> None:
    print(f"== {run.name}  params={json.dumps(run.params, sort_keys=True)}")
    attempted = len(run.reps)
    print(f"   {'failed_share':<16} {run.failed() / attempted:.4f}  "
          f"({run.failed()} of {attempted} repetitions)")
    for name, m in e2e.items():
        print(f"   {name:<16} {m['value']:.6g} {m['unit']:<3} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    for rep in run.reps:
        for reason in rep["reasons"]:
            print(f"   FAILED: {reason}")
    if layers:
        print(f"   -- per layer (median over {len(run.good(True))} traced "
              f"repetitions; trace in {run.trace_file.relative_to(ROOT)})")
        for name, m in layers.items():
            print(f"   {name:<52} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = now() + DEADLINE_S

    if not (ROOT / "src" / "stefansim" / "__init__.py").is_file():
        print(f"error: no stefansim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    reference = checks.load_reference()

    # compile the package once and warm the file cache; not measured
    warm = subprocess.run([sys.executable, "-c", "import stefansim"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: import stefansim failed:\n{warm.stderr}", file=sys.stderr)
        return 3

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [WorkloadRun(n, args.seed, bool(args.trace), reference) for n in names]
    measure_start = now()
    while True:
        pending = [r for r in runs if not r.done_minimum()]
        run = min(pending or runs, key=lambda r: len(r.reps))
        typical = statistics.median([rep["seconds"] for rep in run.reps] or [0.0])
        # past the minimum, start no repetition that would end after --seconds
        if not pending and now() + typical > measure_start + args.seconds:
            break
        if now() + typical > deadline:
            break
        run.run_once(deadline)

    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    results = {}
    metrics = {}
    for run in runs:
        e2e = run.end_to_end()
        layers = run.per_layer() if args.trace else {}
        print_table(run, e2e, layers)
        results[run.name] = {
            "params": run.params, "end_to_end": e2e, "per_layer": layers,
            "attempted": len(run.reps), "failed": run.failed(),
            "repetitions": run.reps,
        }
        listed = spans.LISTED if args.trace else END_TO_END
        source = layers if args.trace else e2e
        chosen = {n: source.get(n) for n, _ in listed}
        prefix = f"{run.name}." if len(runs) > 1 else ""
        for name, m in chosen.items():
            if m is None:
                continue
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}

    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"environment": env, "seconds": args.seconds,
                                    "trace": args.trace, "workloads": results},
                                   indent=1, default=str) + "\n")
    print(f"record: {out_file.relative_to(ROOT)}")

    wanted = len(runs) * len(spans.LISTED if args.trace else END_TO_END)
    if len(metrics) < wanted:
        print("error: some metric has no successful repetition", file=sys.stderr)
        return 3
    attempted = sum(len(r.reps) for r in runs)
    failed = sum(r.failed() for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
