"""Shared expensive runs for the acceptance suite (session-scoped), and
the traced-allocation probe of the memory tests."""

from __future__ import annotations

import tracemalloc

import pytest

from stefansim.initdata import DataSpec
from stefansim.stepper import SolverConfig
from stefansim.harness import simulate, sweep_kappa, sweep_sigma


def _baseline(**kw):
    base = dict(nx=64, ny=129, dt=2.5e-5, t_end=0.05,
                snapshot_every=40, data=DataSpec(alpha=1.0))
    base.update(kw)
    return SolverConfig(**base)


@pytest.fixture(scope="session")
def baseline_run():
    """Flat classical run at the baseline grid and horizon."""
    return simulate(_baseline())


@pytest.fixture(scope="session")
def baseline_run_half_dt():
    return simulate(_baseline(dt=1.25e-5, snapshot_every=80))


@pytest.fixture(scope="session")
def invariant_run():
    """Curved-interface classical run for the identity diagnostics."""
    return simulate(_baseline(data=DataSpec(alpha=1.0, h0_amplitude=0.05)))


@pytest.fixture(scope="session")
def invariant_probe_pair():
    """Same curved state at two resolutions, met at a common early time."""
    t_meet = 0.012
    coarse = simulate(_baseline(
        t_end=t_meet, snapshot_every=48,
        data=DataSpec(alpha=1.0, h0_amplitude=0.05)))
    fine = simulate(_baseline(
        nx=128, ny=257, dt=6.25e-6, t_end=t_meet, snapshot_every=192,
        data=DataSpec(alpha=1.0, h0_amplitude=0.05)))
    return coarse, fine


@pytest.fixture(scope="session")
def kappa_sweep_result():
    return sweep_kappa(_baseline(), ladder=(0.2, 0.1, 0.05, 0.025))


@pytest.fixture(scope="session")
def sigma_sweep_result():
    return sweep_sigma(_baseline(), ladder=(0.1, 0.01, 0.001, 0.0001, 0.0))


@pytest.fixture(scope="session")
def mms_table():
    from stefansim.harness import mms_convergence

    return mms_convergence()


def _traced_peak(fn, *args):
    fn(*args)   # the first call fills the per-grid caches
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: the traced allocation peak in bytes of
    one call of ``fn``, after one untraced warm-up call."""
    return _traced_peak
