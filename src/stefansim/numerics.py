"""Discrete substrate for the periodic strip.

Grids on T^1 x [0, 1], spectral differentiation in the periodic direction,
second-order finite differences in the wall-normal direction, quadrature,
Sobolev norms, and time-derivative estimation from uniformly spaced
snapshots.

Quadrature is the rectangle rule in x (exact for the resolved modes) and
the trapezoid rule in y, applied as a product with cached y-weights.
From a field's rfft modes, ``x_derivatives`` gives several x-derivative
orders in one inverse transform and ``edge_squares`` its H^s edge norms.
Interior Sobolev norms come from discrete Parseval in x: ``mixed_squares``
applies the y-stencils to a field's rfft modes and reads each mixed
derivative's square off as a weighted sum over the modes.

Conventions
-----------
Interior scalar fields are arrays of shape ``(nx, ny)`` with axis 0 the
periodic x-direction on [0, 2*pi) and axis 1 the y-direction on [0, 1]
(endpoints included).  Boundary fields on the lower edge are arrays of
shape ``(nx,)``.  Vector fields stack components along a leading axis.

Fourier coefficients follow ``phi_hat_k = (1/2pi) * integral(phi * e^{-ikx})``,
so the H^0 boundary norm differs from the plain L^2 integral by 1/sqrt(2pi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class NumericsError(Exception):
    """Base class for errors raised by the discrete substrate."""


class ResolutionError(NumericsError):
    """Requested operation exceeds what the grid resolution supports."""


class ConfigurationError(NumericsError):
    """Invalid grid, parameter, or stencil configuration."""


class NeedsMoreStepsError(NumericsError):
    """A time-derivative estimate was requested from too few snapshots."""


TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Tensor grid on the reference strip T^1 x [0, 1].

    ``nx`` periodic samples in x (no endpoint duplication), ``ny`` samples
    in y including both endpoints.  The lower edge row ``j = 0`` is the
    moving-interface parameter line, the top row ``j = ny - 1`` is fixed.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx % 2 != 0 or self.nx < 16:
            raise ConfigurationError(f"nx must be even and >= 16, got {self.nx}")
        if self.ny < 17:
            raise ConfigurationError(f"ny must be >= 17, got {self.ny}")

    @property
    def hx(self) -> float:
        return TWO_PI / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @cached_property
    def ys(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy

    def mesh(self):
        """Broadcastable (x, y) coordinate arrays of shape (nx, 1), (1, ny)."""
        return self.xs[:, None], self.ys[None, :]


def wavenumbers(nx: int) -> np.ndarray:
    """Integer wavenumbers 0..nx/2 matching numpy's rfft layout."""
    return np.fft.rfftfreq(nx, d=1.0 / nx)


@lru_cache(maxsize=32)
def _spectral_multiplier(nx: int, order: int) -> np.ndarray:
    """(ik)^order over the rfft modes, Nyquist zeroed for odd orders.

    Built once per (nx, order) and returned read-only: every call shares it.
    """
    if order > nx // 2 - 2:
        raise ResolutionError(
            f"order {order} exceeds resolvable modes for nx={nx}"
        )
    mult = (1j * wavenumbers(nx)) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
    mult.flags.writeable = False
    return mult


def tangential_derivative(f: np.ndarray, order: int = 1, axis: int | None = None) -> np.ndarray:
    """Spectral x-derivative of a periodic field or boundary field.

    Exact for trigonometric polynomials of degree <= nx/2 - 2.  The Nyquist
    mode is zeroed for odd orders (its derivative is not representable).
    By default x is axis 0 for one-dimensional edge fields and axis -2
    otherwise, so stacked component/matrix fields go through one batched
    transform; pass ``axis=-1`` for stacked edge fields.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    ax = (0 if f.ndim == 1 else f.ndim - 2) if axis is None else axis % f.ndim
    nx = f.shape[ax]
    mult = _spectral_multiplier(nx, order)
    coef = np.fft.rfft(f, axis=ax)
    shape = [1] * f.ndim
    shape[ax] = -1
    coef *= mult.reshape(shape)
    return np.fft.irfft(coef, n=nx, axis=ax)


def x_derivatives(coef: np.ndarray, orders, nx: int) -> np.ndarray:
    """d_x^a of a field for each a in ``orders``, from its rfft modes (x on axis 0).

    One batched inverse transform of the stacked modes (ik)^a coef; returns
    shape (len(orders), nx, ...).  Order 0 copies the modes, so its row is
    the field's own inverse transform; the others are the ones
    ``tangential_derivative`` gives of the field, up to rounding.
    """
    shape = (-1,) + (1,) * (coef.ndim - 1)
    stack = np.empty((len(orders),) + coef.shape, dtype=complex)
    for row, a in zip(stack, orders):
        if a:
            np.multiply(coef, _spectral_multiplier(nx, a).reshape(shape), out=row)
        else:
            row[...] = coef
    return np.fft.irfft(stack, n=nx, axis=1)


#: One-sided first derivative at a wall, in units of 1/(2h), from the wall
#: row inward; exact on quadratics.  The far wall uses the negated weights.
WALL_SLOPE = (-3.0, 4.0, -1.0)
_FAR_WALL_SLOPE = tuple(-w for w in WALL_SLOPE)
#: Centred second difference, in units of 1/h^2.
SECOND_DIFFERENCE = (1.0, -2.0, 1.0)
#: One-sided second derivative at a wall, in units of 1/h^2; exact on cubics.
_WALL_CURVATURE = (2.0, -5.0, 4.0, -1.0)


def _weighted(weights, samples):
    # left to right in one buffer, rounding like the written-out
    # a*f0 - b*f1 + ... (x + (-y) is x - y); unit weights skip the multiply
    out = weights[0] * samples[0]
    for w, f in zip(weights[1:], samples[1:]):
        if w == 1.0:
            out += f
        elif w == -1.0:
            out -= f
        else:
            out += w * f
    return out


def wall_slope(f: np.ndarray, hy: float) -> np.ndarray:
    """One-sided second-order y-derivative at the interface row y = 0.

    The y-derivative's row 0, the implicit solve's Robin row and the
    stepper's lagged Robin correction all use this stencil: the correction
    vanishes on flat geometry only because they coincide, and a higher-order
    trace in it feeds a boundary-layer instability.
    """
    return _weighted(WALL_SLOPE, (f[..., 0], f[..., 1], f[..., 2])) / (2.0 * hy)


def vertical_derivative(f: np.ndarray, hy: float, order: int = 1) -> np.ndarray:
    """Second-order finite-difference y-derivative of an interior field.

    Centered in the interior, one-sided second-order rows at y = 0 and
    y = 1.  ``order`` 1 is exact on quadratics in y, ``order`` 2 on cubics.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if f.shape[-1] < 4:
        raise ConfigurationError("ny too small for the boundary stencils")
    out = np.empty_like(f)
    if order == 1:
        out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * hy)
        out[..., 0] = wall_slope(f, hy)
        far = (f[..., -1], f[..., -2], f[..., -3])
        out[..., -1] = _weighted(_FAR_WALL_SLOPE, far) / (2.0 * hy)
    else:
        h2 = hy * hy
        out[..., 1:-1] = _weighted(
            SECOND_DIFFERENCE, (f[..., 2:], f[..., 1:-1], f[..., :-2])) / h2
        near = (f[..., 0], f[..., 1], f[..., 2], f[..., 3])
        far = (f[..., -1], f[..., -2], f[..., -3], f[..., -4])
        out[..., 0] = _weighted(_WALL_CURVATURE, near) / h2
        out[..., -1] = _weighted(_WALL_CURVATURE, far) / h2
    return out


# One-sided boundary-trace stencils of higher order than the field operators:
# first derivative exact on cubics, second derivative exact on quartics.
_TRACE1 = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0
_TRACE2 = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0


def edge_derivative(f: np.ndarray, hy: float, order: int, top: bool = False) -> np.ndarray:
    """High-order one-sided y-derivative trace at an edge row.

    Used where compatibility residuals must not be polluted by the interior
    stencils (exact on the cubic-in-y initial-data families).
    """
    coeffs = {1: _TRACE1, 2: _TRACE2}[order]
    n = len(coeffs)
    if f.shape[-1] < n:
        raise ConfigurationError("ny too small for the edge-trace stencil")
    cols = f[..., -1 : -n - 1 : -1] if top else f[..., :n]
    sgn = (-1.0) ** order if top else 1.0
    return sgn * np.tensordot(cols, coeffs, axes=([-1], [0])) / hy**order


@lru_cache(maxsize=32)
def _trapezoid_weights(ny: int) -> np.ndarray:
    """Trapezoid weights on the ny nodes of [0, 1], built once and read-only."""
    w = np.full(ny, 1.0 / (ny - 1))
    w[[0, -1]] *= 0.5
    w.flags.writeable = False
    return w


@lru_cache(maxsize=32)
def _parseval_weights(nx: int) -> np.ndarray:
    """Row a = 0..5: hx/nx * m_k * k^(2a) over the rfft modes, read-only.

    m_k counts the modes +-k one rfft mode stands for: 1 at k = 0 and at
    Nyquist, 2 in between.  Odd a weigh the Nyquist mode 0, as the odd
    spectral multipliers zero it.
    """
    k2 = wavenumbers(nx) ** 2
    m = np.full(k2.size, 2.0)
    m[[0, -1]] = 1.0
    w = (TWO_PI / nx**2) * m * k2 ** np.arange(6)[:, None]
    w[1::2, -1] = 0.0
    w.flags.writeable = False
    return w


def integrate_interior(f: np.ndarray, grid: Grid) -> float:
    """Integral over the strip: exact mean in x, trapezoid in y."""
    return float((f @ _trapezoid_weights(grid.ny)).sum() * grid.hx)


def edge_squares(coef: np.ndarray, orders) -> np.ndarray:
    """Squared H^s edge norms, Fourier weights (1 + k^2)^s, for each s in
    ``orders``, from the rfft modes (on axis 0) of edge fields of even
    length; shape (len(orders),) + coef.shape[1:], one product for all."""
    if any(s < 0 for s in orders):
        raise ValueError("s must be >= 0")
    nx = 2 * (coef.shape[0] - 1)
    # row 0 of the Parseval weights is hx/nx * m_k: the squares' mode weights
    w = _parseval_weights(nx)[0].reshape((-1,) + (1,) * (coef.ndim - 1))
    power = w * (coef.real**2 + coef.imag**2) / TWO_PI
    table = (1.0 + wavenumbers(nx) ** 2) ** np.array(orders, float)[:, None]
    return np.einsum("sk,k...->s...", table, power)


def mixed_squares(coef: np.ndarray, grid: Grid, top: int, y_top: int | None = None) -> dict:
    """``{(a, b): integral of (d_x^a d_y^b f)^2}`` for a + b <= top, b <= y_top,
    from the rfft modes ``coef`` of f (x on axis -2).

    Discrete Parseval in x: the y-derivatives taken on the modes (the
    stencils act along y only, so they commute with the transform), and
    each square summed as k^(2a) |mode|^2 against the trapezoid weights in
    y.  This is the quadrature of ``integrate_interior`` applied to the
    spectrally differentiated field, up to rounding.  Odd b take one first
    difference after (b - 1)/2 composed second differences, so only the
    last even level of the y-ladder is kept.  Stacked fields sum their
    components; top is at most 5.
    """
    y_top = top if y_top is None else min(y_top, top)
    w_x = _parseval_weights(grid.nx)
    w_y = _trapezoid_weights(grid.ny)
    # the stencils run faster on real arrays: real and imaginary parts stacked
    even = np.stack((coef.real, coef.imag))
    sq = {}
    for b in range(y_top + 1):
        if b % 2:
            level = vertical_derivative(even, grid.hy, 1)
        else:
            if b:
                even = vertical_derivative(even, grid.hy, 2)
            level = even
        power = (level * level) @ w_y
        del level
        power = power.reshape(-1, power.shape[-1]).sum(axis=0)
        for a in range(top + 1 - b):
            sq[a, b] = float(w_x[a] @ power)
    return sq


def time_derivative(times, values, order: int, index: int = -1) -> np.ndarray:
    """Second-order FD estimate of d^order/dt^order at a snapshot.

    ``values`` is a sequence of arrays sampled at the uniformly spaced
    ``times``; centered stencils are used where possible, one-sided
    second-order stencils at the ends.  Exact on polynomials in t of
    degree <= 2 (order 1: cubics at interior points; order 2: cubics).
    """
    if order not in (1, 2):
        raise ValueError("time-derivative order must be 1 or 2")
    n = len(times)
    need = 2 * order + 1
    if n < need:
        raise NeedsMoreStepsError(
            f"time derivative of order {order} needs {need} snapshots, have {n}"
        )
    if index < 0:
        index = n + index
    dt = times[1] - times[0]
    v = values
    if order == 1:
        if 1 <= index <= n - 2:
            return (v[index + 1] - v[index - 1]) / (2.0 * dt)
        w, rows = (WALL_SLOPE, v[:3]) if index == 0 else (_FAR_WALL_SLOPE, v[:-4:-1])
        return _weighted(w, rows) / (2.0 * dt)
    if 1 <= index <= n - 2:
        return _weighted(SECOND_DIFFERENCE,
                         (v[index + 1], v[index], v[index - 1])) / dt**2
    return _weighted(_WALL_CURVATURE, v[:4] if index == 0 else v[:-5:-1]) / dt**2
