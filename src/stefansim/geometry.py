"""Harmonic-gauge geometry of the moving interface.

The interface is the graph ``y = h(x)`` over the lower edge of the
reference strip.  The strip is mapped onto the physical liquid domain by
the harmonic extension of the boundary data ``(x, h(x))`` with the top
edge pinned to the identity.  Everything downstream (Jacobian, inverse
gradient, edge metric) derives from that map, and one builder,
``metric_bundle(grid, h, rate=None)``, forms all of it from the edge
height, and the map velocity from a rate of it: the step, the data and the
analysis share it.

Graph gauge: the map is ``Id + (0, phi)`` because the horizontal edge
data are the identity, so its gradient is ``[[1, 0], [phi_x, J]]`` with
``J = 1 + phi_y`` and its inverse is ``[[1, 0], [a, c]]`` with
``a = -phi_x / J`` and ``c = 1 / J``.  The pulled-back gradient of a
scalar q is ``(q_x + a q_y, c q_y)``.  On the interface the scaled normal
and tangent are ``(h', -1)`` and ``(1, h')``; no unit vectors are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numerics import (
    Grid,
    NumericsError,
    _spectral_multiplier,
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


def _require_graph(dh: np.ndarray) -> None:
    m = float(np.max(dh * dh))
    if m > GRAPH_BOUND:
        raise InvalidGeometryError(
            f"graph condition violated: sup|h'|^2 = {m:.3g} > {GRAPH_BOUND}"
        )


def check_graph_condition(h: np.ndarray) -> None:
    _require_graph(tangential_derivative(h))


@lru_cache(maxsize=16)
def _extension_profiles(nx: int, ny: int) -> np.ndarray:
    """Per-mode vertical profiles sinh(k(1-y))/sinh(k), 1-y at k = 0.

    Shape (nx//2 + 1, ny).  It depends only on the grid, so it is built once
    per (nx, ny) and returned read-only: every call shares the one array.
    Row 0 is exactly 1 and the last row exactly 0, so the modes of the
    extension's edge rows are the edge data's modes and zero.
    """
    y = Grid(nx, ny).ys[None, :]
    k = wavenumbers(nx)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        # sinh(k(1-y))/sinh(k) written with decaying exponentials.
        prof = np.where(
            k > 0,
            np.exp(-k * y) * (1.0 - np.exp(-2.0 * k * (1.0 - y)))
            / (1.0 - np.exp(-2.0 * k)),
            1.0 - y,
        )
    prof.flags.writeable = False
    return prof


@lru_cache(maxsize=16)
def _extension_slopes(nx: int, ny: int) -> np.ndarray:
    """``vertical_derivative`` of the profiles, read-only like them: the
    stencils act along y only, so they commute with the transform in x."""
    slopes = vertical_derivative(_extension_profiles(nx, ny), Grid(nx, ny).hy, 1)
    slopes.flags.writeable = False
    return slopes


def _extension_modes(grid: Grid, data: np.ndarray) -> np.ndarray:
    # rfft modes in x of the extension, shape (nx//2 + 1, ny)
    return np.fft.rfft(data)[:, None] * _extension_profiles(grid.nx, grid.ny)


def extend_edge(grid: Grid, data: np.ndarray) -> np.ndarray:
    """Harmonic extension of any edge data (rates too): no graph-condition gate.

    Per Fourier mode the vertical profile solves  p'' - k^2 p = 0 with
    p(0)=1, p(1)=0, i.e. the exact sinh/linear profile, so the extension is
    harmonic to machine precision on band-limited data and matches the
    edge rows exactly at the grid nodes.
    """
    phi = np.fft.irfft(_extension_modes(grid, data), n=grid.nx, axis=0)
    phi[:, 0] = data
    phi[:, -1] = 0.0
    return phi


def harmonic_extend(grid: Grid, h: np.ndarray) -> np.ndarray:
    """Vertical offset of the harmonic extension of the edge data (x, h(x)).

    Returns ``phi`` of shape (nx, ny) with the map being Id + (0, phi);
    the horizontal component extends zero edge data and is not stored.
    """
    check_graph_condition(h)
    return extend_edge(grid, h)


@dataclass(frozen=True)
class MetricBundle:
    """Derived fields of the gauge map; the map itself is not stored.

    Interior fields: ``jac`` (Jacobian J = 1 + phi_y), and ``ac``, the two
    nonconstant inverse-gradient entries ``a = -phi_x / J`` and ``c = 1 / J``
    stacked as (2, nx, ny); ``a`` and ``c`` are views of it.  ``w`` is the
    map velocity, the extension of the rate the builder was given (None
    without one): ``extend_edge(grid, w[:, 0])`` equals it bit for bit.

    Edge fields on the interface row: ``height``, ``dheight`` (h'),
    ``line_el`` (g = sqrt(1 + h'^2)), ``jac_edge``; the scaled normal and
    tangent are (h', -1) and (1, h').  The offset phi itself is
    ``extend_edge(grid, height)``.

    ``drift`` is computed on first use and kept with the bundle.  A bundle
    lives only as long as its user: a ``SolverState`` keeps J and the edge
    rows of the map it was stepped to, not the bundle.
    """

    grid: Grid
    jac: np.ndarray
    ac: np.ndarray
    height: np.ndarray
    dheight: np.ndarray
    line_el: np.ndarray
    jac_edge: np.ndarray
    is_flat: bool = False
    w: np.ndarray | None = None

    @property
    def a(self) -> np.ndarray:
        return self.ac[0]

    @property
    def c(self) -> np.ndarray:
        return self.ac[1]

    @cached_property
    def drift(self) -> np.ndarray:
        """``map_drift`` of the bundle, computed on first use and kept.

        It depends on the map alone, so the repeated deviations of one
        bundle (the fixed-point iterations of an elliptic solve) share it.
        """
        return map_drift(self.grid, self.ac)


def map_drift(grid: Grid, ac: np.ndarray) -> np.ndarray:
    """First-order coefficient a_x + a a_y + c c_y of the gauge deviation.

    ``ac`` is the stacked (a, c) of a bundle.  The step calls it directly,
    so the drift lives only as long as the step needs it.
    """
    # (a_y, c_y) times (a, c) in one buffer, summed in the written order
    terms = vertical_derivative(ac, grid.hy, 1)
    terms *= ac
    out = tangential_derivative(ac[0])
    out += terms[0]
    out += terms[1]
    return out


def inverse_gradient(phi_x: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """(a, c) = (-phi_x / J, 1 / J), stacked as (2, ...) in one buffer."""
    ac = np.empty((2,) + np.shape(jac))
    np.negative(np.divide(phi_x, jac, out=ac[0]), out=ac[0])
    np.divide(1.0, jac, out=ac[1])
    return ac


def harmonic_drift(ac, jac, phi_xy, phi_yy) -> np.ndarray:
    """The drift a_x + a a_y + c c_y from exact derivatives of a harmonic phi.

    With phi_xx = -phi_yy: a_x = (phi_yy - a phi_xy) / J,
    a_y = -(phi_xy + a phi_yy) / J and c_y = -c^2 phi_yy.
    """
    a, c = ac
    return ((phi_yy - a * phi_xy) / jac - a * (phi_xy + a * phi_yy) / jac
            - c * c * c * phi_yy)


def metric_bundle(grid: Grid, h: np.ndarray,
                  rate: np.ndarray | None = None) -> MetricBundle:
    """The bundle of the gauge map whose edge height is ``h``.

    One stacked inverse transform of the extension's modes gives phi_x,
    J - 1 (the edge modes times ``_extension_slopes``) and, given a
    ``rate`` of the height, the map velocity w, its extension; phi itself is
    never formed.  Row 0 of phi_x is the edge slope h': the graph gate and
    the edge fields both read it.
    """
    nx, ny = grid.nx, grid.ny
    prof = _extension_profiles(nx, ny)
    # the modes written in place: a list of them stacked made a step about
    # 10% slower at 128x257
    rows = 2 if rate is None else 3
    stack = np.empty((rows, nx // 2 + 1, ny), dtype=complex)
    h_hat = np.fft.rfft(h)[:, None]
    np.multiply(h_hat, prof, out=stack[0])
    stack[0] *= _spectral_multiplier(nx, 1)[:, None]
    np.multiply(h_hat, _extension_slopes(nx, ny), out=stack[1])
    if rate is not None:
        np.multiply(np.fft.rfft(rate)[:, None], prof, out=stack[2])
    fields = np.fft.irfft(stack, n=nx, axis=1)
    del stack
    phi_x = fields[0]
    _require_graph(phi_x[:, 0])
    # J, (a, c) and w own their memory, so that a kept bundle (the analysis
    # window's) does not keep the transform's output alive
    jac = fields[1] + 1.0
    if np.min(jac) <= 0.0:
        raise DegenerateMapError(
            f"Jacobian must stay positive, min = {np.min(jac):.3g}"
        )
    w = None
    if rate is not None:
        w = fields[2].copy()
        w[:, 0], w[:, -1] = rate, 0.0

    ac = inverse_gradient(phi_x, jac)
    dheight = phi_x[:, 0].copy()
    line_el = np.sqrt(1.0 + dheight * dheight)

    return MetricBundle(
        grid=grid,
        jac=jac,
        ac=ac,
        height=h.copy(),
        dheight=dheight,
        line_el=line_el,
        jac_edge=jac[:, 0].copy(),
        is_flat=not np.any(h),
        w=w,
    )


def mean_curvature(h: np.ndarray) -> np.ndarray:
    """Signed curvature of the graph y = h(x): -h'' / (1 + h'^2)^{3/2}."""
    dh = tangential_derivative(h)
    d2h = tangential_derivative(h, 2)
    return -d2h / (1.0 + dh * dh) ** 1.5
