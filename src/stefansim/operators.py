"""Gauge-transformed differential operators on the strip.

These are the building blocks shared by the elliptic solves, the time
stepper, and the diagnostics: the velocity, the gauge deviation, the
transformed Laplacian in divergence and expanded form, the flat Laplacian
used as the implicit part of the splitting, and the gauge curl.  All of
them use the graph-gauge inverse-gradient entries ``a`` and ``c`` of the
metric bundle.
"""

from __future__ import annotations

import numpy as np

from .numerics import Grid, tangential_derivative, vertical_derivative
from .geometry import MetricBundle


def gradient(grid: Grid, q: np.ndarray) -> np.ndarray:
    """(q_x, q_y): spectral in x, second-order FD in y.  Shape (2, nx, ny)."""
    return np.stack(
        (tangential_derivative(q), vertical_derivative(q, grid.hy, 1))
    )


def compute_velocity(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """Extended velocity v = -(q_x + a q_y, c q_y), the pullback of -grad p."""
    qy = vertical_derivative(q, grid.hy, 1)
    return -np.stack((tangential_derivative(q) + bundle.a * qy, bundle.c * qy))


def transformed_laplacian(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """Divergence-form transformed Laplacian.

    The pulled-back flux F = (q_x + a q_y, c q_y) is formed first, then
    differentiated the same way: F0_x + a F0_y + c F1_y.
    """
    flux = -compute_velocity(grid, bundle, q)
    dflux_y = vertical_derivative(flux, grid.hy, 1)
    return (tangential_derivative(flux[0]) + bundle.a * dflux_y[0]
            + bundle.c * dflux_y[1])


def transformed_laplacian_expanded(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """Transformed Laplacian in expanded (non-divergence) form.

    The flat Laplacian plus the gauge deviation, so at identity geometry
    it coincides exactly with the flat Laplacian row by row.  The elliptic
    solves and the stepper interior use this form; the divergence form
    above is the diagnostic realization.
    """
    out = flat_laplacian(grid, q)
    deviation = gauge_deviation(grid, bundle, q)
    return out if deviation is None else out + deviation


def gauge_deviation(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray | None:
    """Expanded-form transformed Laplacian minus the flat Laplacian.

    This is the explicit remainder of the IMEX splitting,
    2a q_xy + (a^2 + c^2 - 1) q_yy + (a_x + a a_y + c c_y) q_y; the q_x and
    q_xx terms cancel exactly in the graph gauge.  Returns None on flat
    geometry (it vanishes identically there).
    """
    if bundle.is_flat:
        return None
    hy = grid.hy
    a, c = bundle.a, bundle.c
    q2 = vertical_derivative(q, hy, 1)
    q22 = vertical_derivative(q, hy, 2)
    q12 = tangential_derivative(q2)
    out = 2.0 * a * q12 + (a * a + c * c - 1.0) * q22
    drift = (tangential_derivative(a) + a * vertical_derivative(a, hy, 1)
             + c * vertical_derivative(c, hy, 1))
    return out + drift * q2


def flat_laplacian(grid: Grid, q: np.ndarray) -> np.ndarray:
    """Plain strip Laplacian with the same stencils as the implicit solve."""
    out = tangential_derivative(q, 2)
    h2 = grid.hy * grid.hy
    lap_y = np.empty_like(q)
    lap_y[:, 1:-1] = (q[:, 2:] - 2.0 * q[:, 1:-1] + q[:, :-2]) / h2
    lap_y[:, 0] = (2.0 * q[:, 0] - 5.0 * q[:, 1] + 4.0 * q[:, 2] - q[:, 3]) / h2
    lap_y[:, -1] = (2.0 * q[:, -1] - 5.0 * q[:, -2] + 4.0 * q[:, -3] - q[:, -4]) / h2
    return out + lap_y


def curl_residual(grid: Grid, bundle: MetricBundle, v: np.ndarray) -> float:
    """sup | c v0_y - v1_x - a v1_y |, the gauge curl of the velocity.

    Vanishes for the continuum solution (the velocity is a pulled-back
    gradient); the discrete value measures commutation error of the
    stencils and decays at the discretization order.
    """
    dv_y = vertical_derivative(v, grid.hy, 1)
    curl = bundle.c * dv_y[0] - tangential_derivative(v[1]) - bundle.a * dv_y[1]
    return float(np.max(np.abs(curl)))
