"""Harmonic-gauge map and derived geometry."""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from stefansim.numerics import Grid, boundary_norm, interior_norm
from stefansim.geometry import (
    InvalidGeometryError,
    harmonic_extend,
    identity_bundle,
    mean_curvature,
    metric_bundle,
)

GRID = Grid(64, 129)


def test_flat_extension_is_identity():
    phi = harmonic_extend(GRID, np.zeros(GRID.nx))
    assert np.max(np.abs(phi)) == 0.0


def test_first_component_always_zero():
    phi = harmonic_extend(GRID, 0.12 * np.cos(3 * GRID.xs))
    assert np.max(np.abs(phi[0])) == 0.0


def test_extension_closed_form_oracle():
    # separation of variables: cos-mode data extends with a sinh profile
    h = 0.1 * np.cos(GRID.xs)
    phi = harmonic_extend(GRID, h)
    x, y = GRID.mesh()
    exact = 0.1 * np.cos(x) * np.sinh(1.0 - y) / np.sinh(1.0)
    assert np.max(np.abs(phi[1] - exact)) <= 1e-10
    j_half = GRID.ny // 2
    assert phi[1, 0, j_half] == pytest.approx(0.1 * np.sinh(0.5) / np.sinh(1.0))


def test_extension_linearity():
    rng = np.random.default_rng(5)
    h1 = 0.05 * np.cos(GRID.xs) + 0.01 * np.sin(3 * GRID.xs)
    h2 = 0.02 * np.sin(2 * GRID.xs)
    lhs = harmonic_extend(GRID, h1 + h2)
    rhs = harmonic_extend(GRID, h1) + harmonic_extend(GRID, h2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_graph_condition_gate():
    with pytest.raises(InvalidGeometryError):
        harmonic_extend(GRID, 0.9 * np.cos(GRID.xs))


def test_bundle_flat_reference_values():
    b = identity_bundle(GRID)
    assert np.max(np.abs(b.jac - 1.0)) == 0.0
    assert np.allclose(b.normal[:, 0], (0.0, -1.0))
    assert np.allclose(b.tangent[:, 0], (1.0, 0.0))
    assert b.is_flat


def test_bundle_invariants_curved():
    h = 0.1 * np.cos(GRID.xs)
    b = metric_bundle(GRID, harmonic_extend(GRID, h))
    assert np.min(b.jac) > 0.0
    mag_n = np.hypot(b.normal[0], b.normal[1])
    mag_t = np.hypot(b.tangent[0], b.tangent[1])
    assert np.max(np.abs(mag_n - 1.0)) <= 1e-10
    assert np.max(np.abs(mag_t - 1.0)) <= 1e-10
    dot = b.normal[0] * b.tangent[0] + b.normal[1] * b.tangent[1]
    assert np.max(np.abs(dot)) <= 1e-10
    # line element at the critical point and the quarter period
    assert b.line_el[0] == pytest.approx(1.0, abs=1e-12)
    idx = GRID.nx // 4
    assert b.line_el[idx] == pytest.approx(np.sqrt(1.0 + 0.01), abs=1e-10)


def test_normal_crosscheck_against_pullback():
    # n = J g^-1 (A^T N) with N = (0, -1); the second row of the inverse
    # gradient is (a, c), so A^T N = -(a, c)
    h = 0.1 * np.cos(GRID.xs) + 0.03 * np.sin(2 * GRID.xs)
    b = metric_bundle(GRID, harmonic_extend(GRID, h))
    pulled = -np.stack((b.a[:, 0], b.c[:, 0]))
    n_check = pulled * b.jac_edge / b.line_el
    assert np.max(np.abs(n_check - b.normal)) <= 1e-8


def test_jacobian_positive_in_safety_region():
    rng = np.random.default_rng(11)
    for _ in range(12):
        amp = rng.uniform(0, 0.12)
        mode = rng.integers(1, 4)
        h = amp * np.cos(mode * GRID.xs + rng.uniform(0, np.pi))
        sup = np.max(np.abs(h)) + np.max(np.abs(
            -amp * mode * np.sin(mode * GRID.xs)))
        if sup > 0.3:
            continue
        b = metric_bundle(GRID, harmonic_extend(GRID, h))
        assert np.min(b.jac) > 0.0


def test_mean_curvature_examples():
    assert np.max(np.abs(mean_curvature(np.zeros(GRID.nx)))) == 0.0
    eps = 0.05
    curv = mean_curvature(eps * np.cos(GRID.xs))
    assert curv[0] == pytest.approx(eps, abs=1e-12)
    # symbolic oracle at the quarter period for a larger amplitude
    x = sp.symbols("x")
    hs = sp.Rational(1, 5) * sp.cos(x)
    expr = -sp.diff(hs, x, 2) / (1 + sp.diff(hs, x) ** 2) ** sp.Rational(3, 2)
    idx = GRID.nx // 4
    oracle = float(expr.subs(x, GRID.xs[idx]))
    got = mean_curvature(0.2 * np.cos(GRID.xs))[idx]
    assert abs(oracle) <= 1e-12
    assert abs(got - oracle) <= 1e-10


def test_trace_gain_ratio_bounded_and_stable():
    # extension gains half a derivative: H^2 interior vs H^1.5 edge norms
    eps = 0.05
    for k in range(1, 7):
        ratios = []
        for grid in (Grid(64, 129), Grid(128, 257)):
            h = eps * np.cos(k * grid.xs)
            phi = harmonic_extend(grid, h)
            ratios.append(
                interior_norm(phi[1], grid, 2) / boundary_norm(h, 1.5)
            )
        assert abs(ratios[1] - ratios[0]) <= 0.1 * abs(ratios[0])
        # observed plateau just above 3; a single constant covers all modes
        assert ratios[0] <= 3.2
