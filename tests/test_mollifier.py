"""Layer smoothing, planar smoothing, and the commutator bound."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stefansim.numerics import ConfigurationError, Grid, tangential_derivative
from stefansim.mollifier import (
    _layer_symbol,
    _planar_rows,
    bump,
    smooth_2d,
    smooth_double,
    smooth_horizontal,
)
from diagnostics import boundary_norm, commutator_defect

GRID = Grid(64, 129)


def _dense_kernel(width: float, samples: int):
    """Offsets and values of the unit-mass bump of the given width, sampled
    densely across its support (independent of the module's sampler)."""
    offsets = np.linspace(-width, width, samples)
    values = bump(offsets / width)
    return offsets, values / np.trapezoid(values, offsets)


def test_kernel_mass_evenness_support():
    # the symbols at k = 0 are the kernels' masses; an even kernel has a
    # real symbol bounded by its mass, and the radial bump's rows mirror
    for width in (0.4, 0.1, 0.03):
        sym = _layer_symbol(width, GRID.nx)
        assert abs(sym[0] - 1.0) <= 1e-10
        assert np.all(np.abs(sym) <= 1.0)
    for width in (0.2, 0.1, 0.03):
        layers, rows = _planar_rows(width, GRID.nx, GRID.hy)
        assert rows.shape == (2 * layers + 1, GRID.nx // 2 + 1)
        assert abs(np.sum(rows[:, 0]) - 1.0) <= 1e-10
        assert np.array_equal(rows, rows[::-1])
        assert np.all(np.abs(rows) <= rows[:, :1])
    outside = bump(np.array([1.0, 1.5, -2.0, -1.0]))
    assert np.all(outside == 0.0)
    assert np.all(bump(np.array([0.0, 0.5, -0.999])) > 0.0)


def test_constants_preserved():
    f = np.full(GRID.nx, 4.2)
    assert np.max(np.abs(smooth_horizontal(f, 0.1) - 4.2)) <= 1e-10
    field = np.full((GRID.nx, GRID.ny), -1.3)
    assert np.max(np.abs(smooth_horizontal(field, 0.2) + 1.3)) <= 1e-10


def test_width_must_fit_torus():
    # a layer width lies in (0, pi): positive, and the support fits the
    # torus once
    for smooth in (smooth_horizontal, smooth_double):
        for width in (0.0, -0.1, np.pi):
            with pytest.raises(ConfigurationError):
                smooth(np.zeros(GRID.nx), width)


@pytest.mark.parametrize("k_mode", [1, 3, 7])
def test_cosine_damping_matches_quadrature_oracle(k_mode):
    # oracle: dense direct convolution sum of the sampled kernel against
    # the cosine, evaluated pointwise
    width = 0.15
    offsets, values = _dense_kernel(width, 2001)
    x0 = GRID.xs[5]
    weights = np.gradient(offsets)
    oracle = float(np.sum(values * np.cos(k_mode * (x0 - offsets)) * weights))
    got = smooth_horizontal(np.cos(k_mode * GRID.xs), width)[5]
    assert abs(got - oracle) <= 5e-6
    damping = got / np.cos(k_mode * x0)
    assert 0.0 < damping <= 1.0


def test_smoothing_commutes_with_derivative():
    f = np.sin(2 * GRID.xs) + 0.3 * np.cos(5 * GRID.xs)
    lhs = smooth_horizontal(tangential_derivative(f), 0.1)
    rhs = tangential_derivative(smooth_horizontal(f, 0.1))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_layerwise_l2_contraction():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(GRID.nx)
    for width in (0.4, 0.1, 0.02):
        assert boundary_norm(smooth_horizontal(phi, width), 0.0) \
            <= boundary_norm(phi, 0.0) + 1e-10


def test_double_smoothing_is_self_convolution():
    # oracle: the double layer pass equals one pass with the kernel's
    # self-convolution, computed by dense quadrature
    width = 0.2
    kern_offsets, kern_values = _dense_kernel(width, 801)
    ds = kern_offsets[1] - kern_offsets[0]
    auto = np.convolve(kern_values, kern_values) * ds
    offsets = np.linspace(2 * kern_offsets[0], 2 * kern_offsets[-1], len(auto))
    f = np.cos(3 * GRID.xs) - 0.4 * np.sin(GRID.xs)
    x0 = GRID.xs[11]
    weights = np.gradient(offsets)
    oracle = float(np.sum(auto * (np.cos(3 * (x0 - offsets))
                                  - 0.4 * np.sin(x0 - offsets)) * weights))
    got = smooth_double(f, width)[11]
    assert abs(got - oracle) <= 1e-9


@st.composite
def _trig_polynomials(draw):
    """A periodic edge row: up to six modes below nx/2 - 1, where the
    spectral derivative is exact, over a constant."""
    nx = draw(st.sampled_from((16, 24, 32, 64, 128)))
    xs = 2.0 * np.pi * np.arange(nx) / nx
    coef = st.floats(-1.0, 1.0, allow_subnormal=False)
    f = np.full(nx, draw(coef))
    for k, a, b in draw(st.lists(
            st.tuples(st.integers(1, nx // 2 - 2), coef, coef), max_size=6)):
        f += a * np.cos(k * xs) + b * np.sin(k * xs)
    return f


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_trig_polynomials(), st.floats(0.01, 3.0))
def test_layer_smoothing_keeps_constants_commutes_and_contracts(f, width):
    # the layer symbol is 1 at k = 0 and |c| <= 1 elsewhere: constants pass
    # (exactly where nx is a power of two; the mixed-radix transform of
    # nx = 24 leaves an ulp), the spectral derivative commutes with the
    # multiplier and the discrete L^2 norm cannot grow
    eps = np.finfo(float).eps
    nx = f.size
    df = tangential_derivative(f)
    scale = np.max(np.abs(f)) + np.max(np.abs(df))
    for smooth in (smooth_horizontal, smooth_double):
        const = np.full(nx, f[0])
        if nx & (nx - 1) == 0:
            assert np.array_equal(smooth(const, width), const)
        else:
            assert np.max(np.abs(smooth(const, width) - const)) <= 2 * eps * abs(f[0])
        commutator = smooth(df, width) - tangential_derivative(smooth(f, width))
        assert np.max(np.abs(commutator)) <= 1e-13 * scale
        assert np.linalg.norm(smooth(f, width)) <= np.linalg.norm(f) * (1 + 2 * eps)


def test_smooth_2d_constant_and_convergence():
    c = np.full((GRID.nx, GRID.ny), 2.5)
    assert np.max(np.abs(smooth_2d(c, 0.1, GRID) - 2.5)) <= 1e-8
    x, y = GRID.mesh()
    f = np.sin(x) * np.cos(2 * y)
    errs = []
    for width in (0.2, 0.1, 0.05, 0.025):
        d = smooth_2d(f, width, GRID) - f
        errs.append(np.sqrt(np.mean(d * d)))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_cached_symbols_are_shared_and_read_only():
    # every smoothing of one width and grid reads the same cached symbols,
    # so a caller writing into one would change every later smoothing
    sym = _layer_symbol(0.1, GRID.nx)
    _, rows = _planar_rows(0.1, GRID.nx, GRID.hy)
    assert _layer_symbol(0.1, GRID.nx) is sym
    for table in (sym, rows):
        with pytest.raises(ValueError):
            table[1] = 0.0


def test_smooth_2d_width_gate():
    for width in (0.3, 0.0, -0.1):
        with pytest.raises(ConfigurationError):
            smooth_2d(np.zeros((GRID.nx, GRID.ny)), width, GRID)


def test_smooth_2d_marginal_kernel_oracle():
    # for y-independent data the planar pass acts through the kernel's
    # horizontal marginal; compare against dense quadrature of that marginal
    width = 0.1
    f = np.broadcast_to(np.sin(GRID.xs)[:, None], (GRID.nx, GRID.ny)).copy()
    got = smooth_2d(f, width, GRID)
    ss = np.linspace(-width, width, 1201)
    uu = np.linspace(-width, width, 1201)
    S, U = np.meshgrid(ss, uu, indexing="ij")
    vals = bump(np.sqrt(S * S + U * U) / width)
    marginal = np.trapezoid(vals, uu, axis=1)
    marginal /= np.trapezoid(marginal, ss)
    x0 = GRID.xs[9]
    oracle = np.trapezoid(marginal * np.sin(x0 - ss), ss)
    assert np.max(np.abs(got[9] - oracle)) <= 1e-6


def test_commutator_constant_multiplier_vanishes():
    F = np.full(GRID.nx, 1.7)
    G = np.cos(5 * GRID.xs)
    assert commutator_defect(F, G, 0.1) <= 1e-10


def test_commutator_zero_data_convention():
    assert commutator_defect(np.sin(GRID.xs), np.zeros(GRID.nx), 0.1) == 0.0


def test_commutator_value_against_quadrature_oracle():
    # brute-force both sides of the commutator on a dense offset grid
    width = 0.1
    F = np.sin(GRID.xs)
    G = np.cos(5 * GRID.xs)
    offsets, values = _dense_kernel(width, 3001)
    w = np.gradient(offsets)
    x = GRID.xs[:, None]
    s = offsets[None, :]
    dG = -5.0 * np.sin(5.0 * (x - s))
    smooth_FdG = np.sum(values * np.sin(x - s) * dG * w, axis=1)
    smooth_dG = np.sum(values * dG * w, axis=1)
    inner_oracle = smooth_FdG - F * smooth_dG
    denom = max(np.max(np.abs(F)), np.max(np.abs(np.cos(GRID.xs)))) \
        * boundary_norm(G, 0.0)
    oracle = boundary_norm(inner_oracle, 0.0) / denom
    got = commutator_defect(F, G, width)
    assert got == pytest.approx(oracle, rel=5e-3)
    assert 0.0 < got


def test_commutator_ratio_uniform_over_widths():
    # the uniform bound saturates only when the data carry energy at the
    # smoothing scales, so the fixed sweep pair is broadband on an edge
    # grid fine enough that even the smallest width genuinely smooths
    grid = Grid(256, 17)
    F = np.sin(grid.xs)
    G = sum(np.cos(k * grid.xs + 0.7 * k * k)
            for k in range(4, grid.nx // 2 - 2))
    ratios = [commutator_defect(F, G, w) for w in (0.4, 0.2, 0.1, 0.05)]
    assert max(ratios) <= 1.0
    assert max(ratios) / min(ratios) <= 3.0


def test_package_import_leaves_scipy_integrate_unloaded():
    # the strip solver is numpy and the kernels integrate by a numpy Simpson
    # rule: importing the package and running each mode load no scipy module
    code = """
import sys
import stefansim
from stefansim.harness import build_config, simulate

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
for extra in ({}, {"sigma": 0.01}, {"kappa": 0.05}):
    traj = simulate(build_config({"grid.nx": 16, "grid.ny": 33, "t_end": 1e-3,
                                  "snapshot_every": 10, "data.h0_amplitude": 0.05,
                                  **extra}))
    assert traj.status == "completed", (extra, traj.status)
assert not scipy_modules(), scipy_modules()
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
