"""Discrete substrate for the periodic strip.

Grids on T^1 x [0, 1], spectral differentiation in the periodic direction,
second-order finite differences in the wall-normal direction, quadrature,
Sobolev norms, and time-derivative estimation from stored snapshot rings.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class NumericsError(Exception):
    """Base class for errors raised by the discrete substrate."""


class ResolutionError(NumericsError):
    """Requested operation exceeds what the grid resolution supports."""


class ConfigurationError(NumericsError):
    """Invalid grid, parameter, or stencil configuration."""


class NeedsMoreStepsError(NumericsError):
    """A time-derivative estimate was requested from too short a history."""


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

    def refined(self) -> "Grid":
        """Grid with both spacings halved; coarse nodes are a subset."""
        return Grid(2 * self.nx, 2 * self.ny - 1)


def wavenumbers(nx: int) -> np.ndarray:
    """Integer wavenumbers 0..nx/2 matching numpy's rfft layout."""
    return np.fft.rfftfreq(nx, d=1.0 / nx)


def fourier_coefficients(phi: np.ndarray) -> np.ndarray:
    """Coefficients phi_hat_k, k = 0..nx/2, under the (1/2pi)-integral convention."""
    return np.fft.rfft(phi, axis=0) / phi.shape[0]


def _x_axis(f: np.ndarray) -> int:
    # boundary fields (nx,) carry x on axis 0; everything else on axis -2,
    # which lets stacked component/matrix fields go through one batched FFT
    return 0 if f.ndim == 1 else f.ndim - 2


def _spectral_multiplier(nx: int, order: int) -> np.ndarray:
    if order > nx // 2 - 2:
        raise ResolutionError(
            f"order {order} exceeds resolvable modes for nx={nx}"
        )
    mult = (1j * wavenumbers(nx)) ** order
    if order % 2 == 1:
        mult[-1] = 0.0
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
    ax = _x_axis(f) if axis is None else axis % f.ndim
    nx = f.shape[ax]
    mult = _spectral_multiplier(nx, order)
    coef = np.fft.rfft(f, axis=ax)
    shape = [1] * f.ndim
    shape[ax] = -1
    coef *= mult.reshape(shape)
    return np.fft.irfft(coef, n=nx, axis=ax)


def tangential_derivatives_upto(f: np.ndarray, orders, axis: int | None = None) -> list:
    """Several x-derivative orders of one field, reusing the forward FFT."""
    ax = _x_axis(f) if axis is None else axis % f.ndim
    nx = f.shape[ax]
    coef = np.fft.rfft(f, axis=ax)
    shape = [1] * f.ndim
    shape[ax] = -1
    out = []
    for order in orders:
        mult = _spectral_multiplier(nx, order)
        out.append(np.fft.irfft(coef * mult.reshape(shape), n=nx, axis=ax))
    return out


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
        out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * hy)
        out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * hy)
    else:
        h2 = hy * hy
        out[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / h2
        out[..., 0] = (
            2.0 * f[..., 0] - 5.0 * f[..., 1] + 4.0 * f[..., 2] - f[..., 3]
        ) / h2
        out[..., -1] = (
            2.0 * f[..., -1] - 5.0 * f[..., -2] + 4.0 * f[..., -3] - f[..., -4]
        ) / h2
    return out


def vertical_derivative_n(f: np.ndarray, hy: float, order: int) -> np.ndarray:
    """y-derivative of arbitrary order by composing the 1st/2nd stencils.

    Accuracy degrades near the walls for order > 2; norm evaluations that
    use this are flagged as lower-confidence by the analysis layer.
    """
    if order == 0:
        return f
    out = f
    for _ in range(order // 2):
        out = vertical_derivative(out, hy, 2)
    if order % 2 == 1:
        out = vertical_derivative(out, hy, 1)
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


def integrate_interior(f: np.ndarray, grid: Grid) -> float:
    """Integral over the strip: exact mean in x, trapezoid in y."""
    return float(np.trapezoid(f, dx=grid.hy, axis=-1).sum(axis=-1) * grid.hx)


def integrate_boundary(phi: np.ndarray, grid: Grid) -> float:
    """Integral over the periodic edge (rectangle rule, spectrally exact)."""
    return float(phi.sum(axis=-1) * grid.hx)


def boundary_norm(phi: np.ndarray, s: float) -> float:
    """H^s norm on the periodic edge via Fourier weights (1 + k^2)^s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    nx = phi.shape[0]
    coef = fourier_coefficients(phi)
    k = wavenumbers(nx)
    w = (1.0 + k * k) ** s
    mags = np.abs(coef) ** 2
    total = w[0] * mags[0] + 2.0 * np.dot(w[1:-1], mags[1:-1]) + w[-1] * mags[-1]
    return float(np.sqrt(total))


def interior_norm(f: np.ndarray, grid: Grid, s: int) -> float:
    """H^s(strip) norm, integer s in 0..5, summing all mixed derivatives."""
    if not isinstance(s, (int, np.integer)) or s < 0:
        raise ValueError("s must be a nonnegative integer")
    if s > 5:
        raise ConfigurationError("interior norms above H^5 are unsupported")
    total = 0.0
    for a in range(s + 1):
        fa = tangential_derivative(f, a) if a else f
        for b in range(s + 1 - a):
            fab = vertical_derivative_n(fa, grid.hy, b)
            total += integrate_interior(fab * fab, grid)
    return float(np.sqrt(total))


@dataclass
class History:
    """Ring buffer of uniformly spaced field snapshots.

    Snapshots are dicts mapping field names to arrays; times must advance
    with uniform spacing (relative tolerance 1e-12).
    """

    depth: int = 5
    times: list = field(default_factory=list)
    snaps: list = field(default_factory=list)

    def push(self, t: float, snap: dict) -> None:
        if self.times:
            if t <= self.times[-1]:
                raise ValueError("history times must be strictly increasing")
            if len(self.times) >= 2:
                dt0 = self.times[1] - self.times[0]
                if abs((t - self.times[-1]) - dt0) > 1e-12 * max(abs(dt0), 1.0):
                    raise ValueError("history spacing must be uniform")
        self.times.append(t)
        self.snaps.append(snap)
        if len(self.times) > self.depth:
            del self.times[0]
            del self.snaps[0]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def spacing(self) -> float:
        if len(self.times) < 2:
            raise NeedsMoreStepsError("history has fewer than two snapshots")
        return self.times[1] - self.times[0]


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
        if index == 0:
            return (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
        return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    if 1 <= index <= n - 2:
        return (v[index + 1] - 2.0 * v[index] + v[index - 1]) / dt**2
    if index == 0:
        return (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dt**2
    return (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dt**2


def history_derivative(history: History, name: str, order: int, index: int = -1) -> np.ndarray:
    """Time derivative of a named field stored in a History ring."""
    values = [s[name] for s in history.snaps]
    return time_derivative(history.times, values, order, index)
