"""Initial-data families, compatibility residuals, regularized datum."""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from stefansim import initdata
from stefansim.numerics import Grid, edge_derivative
from stefansim.geometry import metric_bundle
from stefansim.initdata import (
    EPS_SLAB,
    DataConstructionError,
    DataSpec,
    blend_cutoff,
    build_regularized_datum,
    build_sigma_data,
    compat_residuals,
    taylor_margin,
    transformed_laplacian_edge,
)
from diagnostics import interior_norm

GRID = Grid(64, 129)
SPEC = DataSpec(alpha=1.0)


def test_classical_interface_trace_zero():
    q0, h0 = build_sigma_data(GRID, SPEC, 0.0)
    assert np.max(np.abs(q0[:, 0])) == 0.0
    assert np.max(np.abs(h0)) == 0.0


def test_classical_worked_example_second_condition():
    # flat geometry: the slab profile satisfies q_yy + (q_y)^2 = 0 at the edge
    q0, _ = build_sigma_data(GRID, SPEC, 0.0)
    q2 = edge_derivative(q0, GRID.hy, 1)
    q22 = edge_derivative(q0, GRID.hy, 2)
    assert np.max(np.abs(q22 + q2 * q2)) <= 1e-9


def test_classical_margin_equals_slope():
    spec = DataSpec(alpha=0.5)
    q0, _ = build_sigma_data(GRID, spec, 0.0)
    assert taylor_margin(GRID, q0) == pytest.approx(0.5, abs=1e-10)


def test_classical_slab_profile_exact():
    q0, _ = build_sigma_data(GRID, SPEC, 0.0)
    y = GRID.ys
    slab = y <= EPS_SLAB
    exact = SPEC.alpha * y[slab] - 0.5 * SPEC.alpha**2 * y[slab] ** 2
    assert np.max(np.abs(q0[0, slab] - exact)) <= 1e-15


def test_classical_top_neumann_exact():
    q0, _ = build_sigma_data(GRID, SPEC, 0.0)
    top = edge_derivative(q0, GRID.hy, 1, top=True)
    assert np.max(np.abs(top)) <= 1e-12


def test_classical_flux_sign_guard():
    with pytest.raises(DataConstructionError):
        build_sigma_data(GRID, DataSpec(alpha=4.0), 0.0)


@pytest.mark.parametrize("blend_window", [0.55, 0.4])
def test_sigma_zero_reduces_to_classical(blend_window, monkeypatch):
    # at sigma = 0 the one builder gives the classical datum: the blended
    # slab profile in every column and the spec's interface, for the
    # default blend window and a narrower one
    monkeypatch.setattr(initdata, "BLEND_WINDOW", blend_window)
    qs, hs = build_sigma_data(GRID, SPEC, 0.0)
    assert np.array_equal(qs, np.broadcast_to(qs[0], qs.shape))
    assert np.max(np.abs(hs)) == 0.0
    curved = DataSpec(alpha=1.0, h0_amplitude=0.05)
    q_flat, _ = build_sigma_data(GRID, curved, 0.0)
    assert np.array_equal(q_flat, qs)
    # one family: sigma > 0 keeps the interface and adds only
    # sigma*cos(x)*y^3 times the cutoff, which is 0 at both walls
    q_sig, h_sig = build_sigma_data(GRID, curved, 0.01)
    assert np.array_equal(h_sig, curved.h0_profile(GRID))
    term = 0.01 * np.cos(GRID.xs)[:, None] * (GRID.ys**3 * blend_cutoff(GRID.ys))
    assert np.max(np.abs(q_sig - qs - term)) <= 1e-15
    assert np.array_equal(q_sig[:, [0, -1]], qs[:, [0, -1]])


@pytest.mark.parametrize("sigma", [1e-1, 1e-2, 1e-3, 1e-4])
def test_sigma_family_flat_second_condition(sigma):
    # symbolic oracle: q_yy + q_y^2 - sigma*q_y11 vanishes at y = 0 for the
    # slab form alpha*y - alpha^2 y^2/2 + sigma*cos(x)*y^3
    x, y, a, s = sp.symbols("x y a s")
    q = a * y - a**2 * y**2 / 2 + s * sp.cos(x) * y**3
    resid = (sp.diff(q, y, 2) + sp.diff(q, y) ** 2
             - s * sp.diff(q, y, 1, x, 2)).subs(y, 0)
    assert sp.simplify(resid) == 0

    q0, h0 = build_sigma_data(GRID, DataSpec(alpha=1.0), sigma)
    rep = compat_residuals(GRID, q0, h0, sigma=sigma)
    assert rep.r_second <= 1e-9
    assert rep.r_dirichlet == 0.0
    assert rep.taylor_margin == pytest.approx(1.0, abs=1e-10)


def test_sigma_family_third_trace_derivative():
    # (q0)_yyy at the interface is 6 sigma cos(x); symbolic oracle above,
    # discrete check with a one-sided cubic-exact difference on the slab
    sigma = 0.05
    spec = DataSpec(alpha=1.0)
    q0, _ = build_sigma_data(GRID, spec, sigma)
    hy = GRID.hy
    d3 = (-q0[:, 0] + 3 * q0[:, 1] - 3 * q0[:, 2] + q0[:, 3]) / hy**3
    expected = 6.0 * sigma * np.cos(GRID.xs)
    assert np.max(np.abs(d3 - expected)) <= 1e-6


def test_compat_hand_oracle_violation():
    # q0 = y violates the second condition by exactly 1 (q_yy + q_y^2 = 1)
    y = GRID.ys
    q0 = np.broadcast_to(y, (GRID.nx, GRID.ny)).copy()
    rep = compat_residuals(GRID, q0, np.zeros(GRID.nx))
    assert rep.r_second == pytest.approx(1.0, rel=0.05)


def test_compat_negative_margin_detected():
    y = GRID.ys
    q0 = np.broadcast_to(-y, (GRID.nx, GRID.ny)).copy()
    rep = compat_residuals(GRID, q0, np.zeros(GRID.nx))
    assert rep.taylor_margin == pytest.approx(-1.0, abs=1e-10)
    assert not rep.passed


def test_regularized_datum_traces_and_limit():
    q0, h0 = build_sigma_data(GRID, SPEC, 0.0)
    b0 = metric_bundle(GRID, np.zeros(GRID.nx))
    q2 = edge_derivative(q0, GRID.hy, 1)
    prev = None
    for width in (0.2, 0.1, 0.05):
        qr, _ = build_regularized_datum(GRID, q0, h0, width)
        assert np.max(np.abs(qr[:, 0])) <= 1e-8
        trace_b = transformed_laplacian_edge(GRID, b0, qr) + q2 * q2
        assert np.max(np.abs(trace_b)) <= 1e-6
        err = interior_norm(qr - q0, GRID, 2)
        if prev is not None:
            assert err < prev
        prev = err
        if width <= 0.1:
            assert taylor_margin(GRID, qr) > 0.0


def test_regularized_datum_curved_interface():
    spec = DataSpec(alpha=1.0, h0_amplitude=0.04)
    q0, h0 = build_sigma_data(GRID, spec, 0.0)
    qr, _ = build_regularized_datum(GRID, q0, h0, 0.1)
    assert np.max(np.abs(qr[:, 0])) <= 1e-8
    assert np.all(np.isfinite(qr))
    bundle = metric_bundle(GRID, h0)
    wgt = bundle.line_el**2 / bundle.jac_edge**2
    q2 = edge_derivative(q0, GRID.hy, 1)
    from stefansim.mollifier import smooth_double

    bundle_k = metric_bundle(GRID, smooth_double(h0, 0.1))
    trace_b = transformed_laplacian_edge(GRID, bundle_k, qr) + wgt * q2 * q2
    # curved geometry: trace evaluator vs interior rows differ at the
    # second-order level scaled by the gauge deviation
    assert np.max(np.abs(trace_b)) <= 2e-4


def test_spec_validation():
    with pytest.raises(Exception):
        DataSpec(alpha=-1.0)
    with pytest.raises(Exception):
        build_sigma_data(GRID, SPEC, -0.1)
