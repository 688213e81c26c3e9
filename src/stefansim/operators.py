"""Gauge-transformed differential operators on the strip.

These are the building blocks shared by the elliptic solves, the time
stepper, and the diagnostics: the velocity, the gauge deviation, the
transformed Laplacian, the flat Laplacian used as the implicit part of the
splitting, and the gauge curl.  All of
them use the graph-gauge inverse-gradient entries ``a`` and ``c`` of the
metric bundle.  The velocity and deviation formulas are also exposed as
pointwise kernels on given derivatives, for callers that hold those
already (the step, and the manufactured sources in closed form).
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


def velocity_from_derivatives(a, c, qx, qy) -> np.ndarray:
    """Pointwise -(q_x + a q_y, c q_y) from derivatives of q given at the nodes.

    The other arguments must broadcast to the shape of ``qy``.
    """
    # written into one buffer: a step's arrays outgrow the cache, so each
    # temporary costs memory traffic
    v = np.empty((2,) + np.shape(qy))
    np.multiply(a, qy, out=v[0])
    v[0] += qx
    np.multiply(c, qy, out=v[1])
    return np.negative(v, out=v)


def compute_velocity(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """Extended velocity v = -(q_x + a q_y, c q_y), the pullback of -grad p."""
    qy = vertical_derivative(q, grid.hy, 1)
    return velocity_from_derivatives(bundle.a, bundle.c, tangential_derivative(q), qy)


def transformed_laplacian_expanded(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """Transformed Laplacian in expanded form.

    The flat Laplacian plus the gauge deviation, so at identity geometry
    it coincides exactly with the flat Laplacian row by row.  The initial
    data and the initial time derivatives use it.
    """
    out = flat_laplacian(grid, q)
    deviation = gauge_deviation(grid, bundle, q)
    return out if deviation is None else out + deviation


def deviation_from_derivatives(a, c, drift, qy, qyy, qxy) -> np.ndarray:
    """Pointwise 2a q_xy + (a^2 + c^2 - 1) q_yy + drift q_y from given derivatives.

    The other arguments must broadcast to the shape of ``a``.
    """
    # in place to save temporaries, in the order of the formula, so the
    # rounding is that of the written-out expression
    out = 2.0 * a
    out *= qxy
    coef = a * a
    coef += c * c
    coef -= 1.0
    coef *= qyy
    out += coef
    out += np.multiply(drift, qy, out=coef)
    return out


def gauge_deviation(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray | None:
    """Expanded-form transformed Laplacian minus the flat Laplacian.

    This is the explicit remainder of the IMEX splitting,
    2a q_xy + (a^2 + c^2 - 1) q_yy + (a_x + a a_y + c c_y) q_y; the q_x and
    q_xx terms cancel exactly in the graph gauge.  The first-order
    coefficient is ``bundle.drift``, computed once per bundle.  Returns None
    on flat geometry (it vanishes identically there).
    """
    if bundle.is_flat:
        return None
    q2 = vertical_derivative(q, grid.hy, 1)
    q22 = vertical_derivative(q, grid.hy, 2)
    return deviation_from_derivatives(bundle.a, bundle.c, bundle.drift, q2, q22,
                                      tangential_derivative(q2))


def flat_laplacian(grid: Grid, q: np.ndarray) -> np.ndarray:
    """Plain strip Laplacian with the same stencils as the implicit solve."""
    return tangential_derivative(q, 2) + vertical_derivative(q, grid.hy, 2)


def curl_residual(grid: Grid, bundle: MetricBundle, v: np.ndarray) -> float:
    """sup | c v0_y - v1_x - a v1_y |, the gauge curl of the velocity.

    Vanishes for the continuum solution (the velocity is a pulled-back
    gradient); the discrete value measures commutation error of the
    stencils and decays at the discretization order.
    """
    dv_y = vertical_derivative(v, grid.hy, 1)
    curl = bundle.c * dv_y[0] - tangential_derivative(v[1]) - bundle.a * dv_y[1]
    return float(np.max(np.abs(curl)))
