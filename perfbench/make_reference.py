"""Record the reference outputs the benchmark's correctness checks compare to.

Run once from the repository root, at the commit whose outputs are the
reference::

    python3 perfbench/make_reference.py

It runs every workload at the amplitudes in ``checks.H0_REFERENCE`` /
``checks.MMS_REFERENCE`` through the same child process the benchmark
uses and writes ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import sys

import checks
import run


def _record(workload: str, key: str, amplitude: float) -> dict:
    params = run.make_params(workload, 0)
    params[key] = amplitude
    run.OUT.mkdir(exist_ok=True)
    rec, _, error = run.run_child(workload, params, f"reference-{workload}",
                                  run.CPUS[0], None,
                                  run.now() + run.CHILD_TIMEOUT_S)
    if error or rec.get("status") != "completed" or not rec.get("finite"):
        sys.exit(f"{workload} at {amplitude}: {error or rec}")
    return rec


def main() -> None:
    env = run.environment(seed=0)
    ref = {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]}
    for workload in ("run-curved-64", "run-curved-128"):
        recs = [_record(workload, "data.h0_amplitude", a)
                for a in checks.H0_REFERENCE]
        ref[workload] = {
            "amplitudes": list(checks.H0_REFERENCE),
            "final_h": [r["final_h"] for r in recs],
            "final_q_sample": [r["final_q_sample"] for r in recs],
            "min_margin": [r["min_margin"] for r in recs],
        }
    keys = ("statuses", "flags", "uniform_bound", "order_ok",
            "lower_order_bounded", "monotone")
    outcomes = [{k: r[k] for k in keys}
                for r in (_record("sweep-kappa-dense", "data.h0_amplitude", a)
                          for a in (min(checks.H0_RANGE), max(checks.H0_RANGE)))]
    if outcomes[0] != outcomes[1]:
        sys.exit(f"sweep outcome changes across the amplitude range: {outcomes}")
    ref["sweep-kappa-dense"] = {"outcome": outcomes[0]}
    ref["mms-curved"] = {
        "amplitudes": list(checks.MMS_REFERENCE),
        "mms_error": [_record("mms-curved", "amp", a)["mms_error"]
                      for a in checks.MMS_REFERENCE],
    }
    checks.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
