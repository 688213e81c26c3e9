"""Correctness checks of one repetition against the seed-commit reference.

``reference.json`` was written by ``make_reference.py`` from the source
tree at which this benchmark was defined.  Each check returns the list of
reasons the repetition fails; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

#: Curved-interface amplitudes the seed draws from.  Below 0.045 the
#: kappa = 0.2 energy ratio of the sweep sits within 10% of the
#: uniform-bound threshold 3, so that flag would not be a stable reference.
H0_RANGE = (0.045, 0.06)
#: Manufactured-solution amplitudes the seed draws from.
MMS_RANGE = (0.045, 0.055)
#: Amplitudes the reference is recorded at (quadratic interpolation between).
H0_REFERENCE = (0.045, 0.0525, 0.06)
MMS_REFERENCE = (0.045, 0.05, 0.055)

#: Max-norm tolerance on the final temperature samples and height.  The
#: time error of the seed's first-order step is about 7e-6 in q and 2e-7 in
#: h (run-curved-64, dt against dt/2), so a change of time scheme stays
#: 30-50x inside; the amplitude's own effect over H0_RANGE is 5e-4 and
#: 1.5e-2.
Q_TOL = 2e-4
H_TOL = 1e-5
#: A run fails if its MMS error exceeds this multiple of the seed's.
MMS_FACTOR = 1.5


def sample_q(q) -> list:
    """A 16 x 17 sub-sample of the temperature grid (nx/16, (ny-1)/16 strides)."""
    nx, ny = len(q), len(q[0])
    sx, sy = nx // 16, (ny - 1) // 16
    return [[float(q[i][j]) for j in range(0, ny, sy)] for i in range(0, nx, sx)]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _lagrange(xs, x) -> list:
    weights = []
    for i, xi in enumerate(xs):
        w = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                w *= (x - xj) / (xi - xj)
        weights.append(w)
    return weights


def _interpolate(xs, values, x):
    """Quadratic interpolation in amplitude of nested lists of floats."""
    weights = _lagrange(xs, x)

    def combine(items):
        if isinstance(items[0], list):
            return [combine([it[k] for it in items]) for k in range(len(items[0]))]
        return sum(w * v for w, v in zip(weights, items))

    return combine(values)


def _max_diff(a, b) -> float:
    if isinstance(a, list):
        return max((_max_diff(x, y) for x, y in zip(a, b)), default=0.0)
    return abs(a - b)


def _all_finite(values) -> bool:
    if isinstance(values, list):
        return all(_all_finite(v) for v in values)
    return math.isfinite(values)


def check(workload: str, params: dict, rec: dict | None, ref: dict) -> list:
    """Reasons repetition ``rec`` of ``workload`` fails; [] if it passes."""
    if not rec:
        return ["did not complete"]
    reasons = []
    if rec.get("status") != "completed":
        reasons.append(f"status {rec.get('status')!r}")
    if not rec.get("finite"):
        reasons.append("non-finite field")
    for key in ("wall_s", "setup_s", "ms_per_step", "peak_rss_mb"):
        value = rec.get(key)
        if not isinstance(value, (int, float)) or not value > 0:
            reasons.append(f"{key} missing")
    if reasons:
        return reasons
    table = ref[workload]
    if workload.startswith("run-curved"):
        amp = params["data.h0_amplitude"]
        if not rec["manifest_written"]:
            reasons.append("no manifest written")
        if not rec["min_margin"] > 0.0:
            reasons.append(f"minimum Taylor margin {rec['min_margin']:.3g} <= 0")
        h_ref = _interpolate(table["amplitudes"], table["final_h"], amp)
        q_ref = _interpolate(table["amplitudes"], table["final_q_sample"], amp)
        if (len(rec["final_h"]), len(rec["final_q_sample"])) != (len(h_ref), len(q_ref)):
            return reasons + ["final fields have another shape than the reference"]
        dh = _max_diff(rec["final_h"], h_ref)
        dq = _max_diff(rec["final_q_sample"], q_ref)
        if not (_all_finite(rec["final_h"]) and dh <= H_TOL):
            reasons.append(f"final h off the reference by {dh:.3g} > {H_TOL:g}")
        if not (_all_finite(rec["final_q_sample"]) and dq <= Q_TOL):
            reasons.append(f"final q off the reference by {dq:.3g} > {Q_TOL:g}")
    elif workload == "sweep-kappa-dense":
        for key, expected in table["outcome"].items():
            if rec[key] != expected:
                reasons.append(f"{key} {rec[key]!r} differs from seed {expected!r}")
    elif workload == "mms-curved":
        seed_error = _interpolate(table["amplitudes"], table["mms_error"],
                                  params["amp"])
        limit = MMS_FACTOR * seed_error
        if not rec["mms_error"] <= limit:
            reasons.append(f"mms_error {rec['mms_error']:.4g} above {limit:.4g} "
                           f"({MMS_FACTOR}x the seed's)")
    return reasons
