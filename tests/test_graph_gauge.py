"""Graph-gauge metric and operators against the general 2x2 formulas.

The gauge map is Id + (0, phi), so the package stores only the Jacobian
and the two nonconstant inverse-gradient entries a and c.  The oracle
below keeps the general formulas for an arbitrary map gradient: the
literal matrix inverse, the pulled-back gradient, the expanded Laplacian
with its metric W and drift, and the gauge curl.  On graph-gauge maps the
two must agree, bitwise wherever the package evaluates the same
floating-point expression.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from stefansim.geometry import GRAPH_BOUND, harmonic_extend, metric_bundle
from stefansim.numerics import Grid, tangential_derivative, vertical_derivative
from stefansim.operators import (
    compute_velocity,
    curl_residual,
    gauge_deviation,
    transformed_laplacian_expanded,
)

#: total slope budget sum_k k |A_k|; it bounds sup|h'| and keeps
#: J >= 1 - 0.6 coth(1) > 0.2 for every drawn height
SLOPE_BUDGET = 0.6
assert SLOPE_BUDGET**2 < GRAPH_BOUND


# ---------------------------------------------------------------------------
# general 2x2 oracle


def oracle_map_gradient(grid: Grid, phi: np.ndarray) -> np.ndarray:
    """M[r, c] = d(psi^r)/d(x^c) of the map psi = Id + phi, shape (2, 2, nx, ny)."""
    grad = np.empty((2, 2, grid.nx, grid.ny))
    grad[:, 0] = tangential_derivative(phi)
    grad[:, 1] = vertical_derivative(phi, grid.hy, 1)
    grad[0, 0] += 1.0
    grad[1, 1] += 1.0
    return grad


def oracle_inverse(grad: np.ndarray):
    """Determinant and literal matrix inverse ainv[r, c] = (M^-1)[r, c]."""
    jac = grad[0, 0] * grad[1, 1] - grad[0, 1] * grad[1, 0]
    ainv = np.empty_like(grad)
    ainv[0, 0] = grad[1, 1] / jac
    ainv[0, 1] = -grad[0, 1] / jac
    ainv[1, 0] = -grad[1, 0] / jac
    ainv[1, 1] = grad[0, 0] / jac
    return jac, ainv


def oracle_pullback(ainv: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """(ainv^T dq)_i = sum_k ainv[k, i] dq_k."""
    return np.stack((
        ainv[0, 0] * dq[0] + ainv[1, 0] * dq[1],
        ainv[0, 1] * dq[0] + ainv[1, 1] * dq[1],
    ))


def oracle_expanded(grid: Grid, ainv: np.ndarray, q: np.ndarray,
                    minus_flat: bool = False) -> np.ndarray:
    """W_jk q_{,jk} + drift_k q_{,k}, optionally with W - I in place of W."""
    hy = grid.hy
    A = ainv
    q1 = tangential_derivative(q)
    q11 = tangential_derivative(q, 2)
    q2 = vertical_derivative(q, hy, 1)
    q22 = vertical_derivative(q, hy, 2)
    q12 = tangential_derivative(q2)
    shift = 1.0 if minus_flat else 0.0
    # W_jk = sum_i A_i^j A_i^k with A_i^k = ainv[k, i]
    w11 = A[0, 0] ** 2 + A[0, 1] ** 2 - shift
    w22 = A[1, 0] ** 2 + A[1, 1] ** 2 - shift
    w12 = A[0, 0] * A[1, 0] + A[0, 1] * A[1, 1]
    out = w11 * q11 + 2.0 * w12 * q12 + w22 * q22
    dAx = tangential_derivative(A)
    dAy = vertical_derivative(A, hy, 1)
    # drift_k = sum_{i,j} ainv[j, i] d_j ainv[k, i]
    drift1 = (A[0, 0] * dAx[0, 0] + A[0, 1] * dAx[0, 1]
              + A[1, 0] * dAy[0, 0] + A[1, 1] * dAy[0, 1])
    drift2 = (A[0, 0] * dAx[1, 0] + A[0, 1] * dAx[1, 1]
              + A[1, 0] * dAy[1, 0] + A[1, 1] * dAy[1, 1])
    return out + drift1 * q1 + drift2 * q2


def oracle_curl(grid: Grid, ainv: np.ndarray, v: np.ndarray) -> float:
    """sup | eps_ji ainv[s, j] d_s v^i |."""
    dv0 = np.stack((tangential_derivative(v[0]), vertical_derivative(v[0], grid.hy, 1)))
    dv1 = np.stack((tangential_derivative(v[1]), vertical_derivative(v[1], grid.hy, 1)))
    curl = (ainv[0, 1] * dv0[0] + ainv[1, 1] * dv0[1]
            - ainv[0, 0] * dv1[0] - ainv[1, 0] * dv1[1])
    return float(np.max(np.abs(curl)))


# ---------------------------------------------------------------------------
# strategies

_unit = st.floats(-1.0, 1.0, allow_nan=False)
_phase = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


@st.composite
def cases(draw):
    nx = draw(st.sampled_from((32, 48, 64)))
    grid = Grid(nx, nx + 1)
    x, y = grid.mesh()
    # band-limited height, modes 1..4, rescaled to a drawn share of the budget
    modes = draw(st.lists(st.tuples(st.integers(1, 4), st.floats(0.1, 1.0), _phase),
                          min_size=1, max_size=3))
    h = sum(amp * np.cos(k * grid.xs + ph) for k, amp, ph in modes)
    slope = sum(k * amp for k, amp, _ in modes)
    h = h * (draw(st.floats(0.05, 1.0)) * SLOPE_BUDGET / slope)
    # temperature: trig(x) times a cubic in y, summed over a few terms
    q = np.zeros((grid.nx, grid.ny))
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 5))
        ph = draw(_phase)
        coeffs = draw(st.lists(_unit, min_size=4, max_size=4))
        poly = sum(cf * y**p for p, cf in enumerate(coeffs))
        q = q + np.cos(m * x + ph) * poly
    return grid, h, q


@settings(max_examples=50, derandomize=True, deadline=None)
@given(cases())
def test_graph_gauge_matches_general_formulas(case):
    grid, h, q = case
    phi = harmonic_extend(grid, h)
    b = metric_bundle(grid, phi)
    grad = oracle_map_gradient(grid, phi)
    jac, ainv = oracle_inverse(grad)

    assert np.array_equal(b.jac, jac)
    assert np.array_equal(b.a, ainv[1, 0])
    assert np.array_equal(b.c, ainv[1, 1])
    assert np.min(b.jac) > 0.0

    # [[1, 0], [a, c]] inverts the full map gradient
    graph_inv = np.zeros_like(grad)
    graph_inv[0, 0] = 1.0
    graph_inv[1, 0] = b.a
    graph_inv[1, 1] = b.c
    prod = np.einsum("rkxy,kcxy->rcxy", graph_inv, grad)
    assert np.max(np.abs(prod - np.eye(2)[:, :, None, None])) <= 1e-12

    dq = np.stack((tangential_derivative(q), vertical_derivative(q, grid.hy, 1)))
    v = compute_velocity(grid, b, q)
    assert np.array_equal(v, -oracle_pullback(ainv, dq))
    assert np.array_equal(gauge_deviation(grid, b, q),
                          oracle_expanded(grid, ainv, q, minus_flat=True))
    assert curl_residual(grid, b, v) == oracle_curl(grid, ainv, v)

    lap = transformed_laplacian_expanded(grid, b, q)
    ref = oracle_expanded(grid, ainv, q)
    assert np.max(np.abs(lap - ref)) <= 1e-13 * np.max(np.abs(ref))
