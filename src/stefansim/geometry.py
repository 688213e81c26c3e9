"""Harmonic-gauge geometry of the moving interface.

The interface is the graph ``y = h(x)`` over the lower edge of the
reference strip.  The strip is mapped onto the physical liquid domain by
the harmonic extension of the boundary data ``(x, h(x))`` with the top
edge pinned to the identity.  Everything downstream (Jacobian, inverse
gradient, edge metric, normals) derives from that map.

Graph gauge: the map is ``Id + (0, phi)`` because the horizontal edge
data are the identity, so its gradient is ``[[1, 0], [phi_x, J]]`` with
``J = 1 + phi_y`` and its inverse is ``[[1, 0], [a, c]]`` with
``a = -phi_x / J`` and ``c = 1 / J``.  The pulled-back gradient of a
scalar q is ``(q_x + a q_y, c q_y)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    Grid,
    NumericsError,
    tangential_derivative,
    vertical_derivative,
    wavenumbers,
)


class InvalidGeometryError(NumericsError):
    """The height function violates the graph condition."""


class DegenerateMapError(NumericsError):
    """The gauge map lost injectivity (Jacobian <= 0 somewhere)."""


#: Squared-slope bound below which the interface is treated as a graph.
GRAPH_BOUND = 0.5


def graph_margin(h: np.ndarray) -> float:
    """sup |h'|^2; the graph condition requires this <= GRAPH_BOUND."""
    dh = tangential_derivative(h)
    return float(np.max(dh * dh))


def check_graph_condition(h: np.ndarray, bound: float = GRAPH_BOUND) -> None:
    m = graph_margin(h)
    if m > bound:
        raise InvalidGeometryError(
            f"graph condition violated: sup|h'|^2 = {m:.3g} > {bound}"
        )


def harmonic_extend(grid: Grid, h: np.ndarray, graph_bound: float = GRAPH_BOUND) -> np.ndarray:
    """Offset field of the harmonic extension of the edge data (x, h(x)).

    Returns ``phi`` of shape (2, nx, ny) with the map being Id + phi; the
    first component is identically zero (it extends zero edge data).  Per
    Fourier mode the vertical profile solves  p'' - k^2 p = 0 with p(0)=1,
    p(1)=0, i.e. the exact sinh/linear profile, so the extension is
    harmonic to machine precision on band-limited data and matches the
    edge rows exactly at the grid nodes.
    """
    check_graph_condition(h, graph_bound)
    nx, ny = grid.nx, grid.ny
    y = grid.ys[None, :]
    k = wavenumbers(nx)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        # sinh(k(1-y))/sinh(k) written with decaying exponentials.
        prof = np.where(
            k > 0,
            np.exp(-k * y) * (1.0 - np.exp(-2.0 * k * (1.0 - y)))
            / (1.0 - np.exp(-2.0 * k)),
            1.0 - y,
        )
    coef = np.fft.rfft(h)[:, None] * prof
    phi = np.zeros((2, nx, ny))
    phi[1] = np.fft.irfft(coef, n=nx, axis=0)
    phi[1, :, 0] = h
    phi[1, :, -1] = 0.0
    return phi


@dataclass(frozen=True)
class MetricBundle:
    """Gauge map and every derived geometric quantity.

    Interior fields: ``phi`` (map offset, (2, nx, ny)), ``jac`` (Jacobian
    J = 1 + phi_y), and the two nonconstant inverse-gradient entries
    ``a = -phi_x / J`` and ``c = 1 / J``.

    Edge fields on the interface row: ``height``, ``dheight``, ``line_el``
    (sqrt(1 + h'^2)), unit ``normal`` and ``tangent``, ``jac_edge``.
    """

    grid: Grid
    phi: np.ndarray
    jac: np.ndarray
    a: np.ndarray
    c: np.ndarray
    height: np.ndarray
    dheight: np.ndarray
    line_el: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    jac_edge: np.ndarray
    is_flat: bool = False


def metric_bundle(grid: Grid, phi: np.ndarray) -> MetricBundle:
    """Build the full geometric bundle from a map offset field."""
    jac = 1.0 + vertical_derivative(phi[1], grid.hy, 1)
    if np.min(jac) <= 0.0:
        raise DegenerateMapError(
            f"Jacobian must stay positive, min = {np.min(jac):.3g}"
        )

    height = phi[1, :, 0].copy()
    dheight = tangential_derivative(height)
    line_el = np.sqrt(1.0 + dheight * dheight)
    normal = np.stack((dheight, -np.ones_like(dheight))) / line_el
    tangent = np.stack((np.ones_like(dheight), dheight)) / line_el

    return MetricBundle(
        grid=grid,
        phi=phi,
        jac=jac,
        a=-tangential_derivative(phi[1]) / jac,
        c=1.0 / jac,
        height=height,
        dheight=dheight,
        line_el=line_el,
        normal=normal,
        tangent=tangent,
        jac_edge=jac[:, 0].copy(),
        is_flat=not np.any(phi[1]),
    )


def identity_bundle(grid: Grid) -> MetricBundle:
    """Bundle of the identity map (flat interface)."""
    return metric_bundle(grid, np.zeros((2, grid.nx, grid.ny)))


def mean_curvature(h: np.ndarray) -> np.ndarray:
    """Signed curvature of the graph y = h(x): -h'' / (1 + h'^2)^{3/2}."""
    dh = tangential_derivative(h)
    d2h = tangential_derivative(h, 2)
    return -d2h / (1.0 + dh * dh) ** 1.5
