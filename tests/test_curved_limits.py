"""Each interface law converges on a curved interface, and sigma -> 0 there.

The acceptance sweeps start flat, so the curvature term never acts in the
sigma sweep and the kappa forcing vanishes in the kappa sweep.  These runs
start from a bent interface (h0 amplitude 0.05) on a coarse x grid and
compare final states: between successive y refinements for the classical
and sigma laws, and against the classical run as sigma halves.
"""

from __future__ import annotations

import numpy as np
import pytest

from stefansim.harness import simulate
from stefansim.initdata import DataSpec
from stefansim.stepper import SolverConfig

REFINED_NY = (33, 65, 129)
SIGMA_LADDER = (0.1, 0.05, 0.025, 0.0125, 0.00625)


@pytest.fixture(scope="module")
def final_states():
    """Final snapshot of each (ny, sigma) run, nine runs in all."""
    cases = {(ny, s) for ny in REFINED_NY for s in (0.0, 0.1)}
    cases |= {(129, s) for s in SIGMA_LADDER}
    out = {}
    for ny, sigma in sorted(cases):
        traj = simulate(SolverConfig(
            nx=16, ny=ny, dt=2.5e-5, t_end=0.01, snapshot_every=400,
            sigma=sigma, data=DataSpec(alpha=1.0, h0_amplitude=0.05)))
        assert traj.status == "completed", (ny, sigma, traj.status)
        out[ny, sigma] = traj.snaps[-1]
    return out


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_curved_refinement_converges(final_states, sigma):
    # second order in y would give 4 per level; the height is an edge field
    # and q is compared on the coarser grid's nodes
    snaps = [final_states[ny, sigma] for ny in REFINED_NY]
    dh = [np.max(np.abs(a.h - b.h)) for a, b in zip(snaps, snaps[1:])]
    dq = [np.max(np.abs(a.q - b.q[:, ::2])) for a, b in zip(snaps, snaps[1:])]
    assert dh[0] / dh[1] >= 2.5, dh
    assert dq[0] / dq[1] >= 2.5, dq


def test_curved_sigma_limit_is_first_order(final_states):
    classical = final_states[129, 0.0]
    runs = [final_states[129, s] for s in SIGMA_LADDER]
    for name in ("h", "q"):
        dist = [np.max(np.abs(r[name] - classical[name])) for r in runs]
        ratios = [a / b for a, b in zip(dist, dist[1:])]
        assert min(ratios) >= 1.8, (name, dist)
