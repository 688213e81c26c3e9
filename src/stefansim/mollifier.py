"""Mollification operators: horizontal convolution by layers and 2-D smoothing.

Both operators sample one compactly supported bump,
rho(x) = c * exp(-1/(1-x^2)) on |x| < 1, scaled to a width and normalized
to unit mass, through one sampler, ``_bump_rows``: on each horizontal line
u of the radial bump rho(|(s, u)|/width) it takes the Simpson
cos-transform over the rfft modes and the line's mass.

The layer operator convolves each horizontal line of a field with the
bump's line u = 0, realized on the periodic grid as a Fourier multiplier;
this is the exact periodic convolution for band-limited data, it preserves
constants exactly and commutes with the spectral x-derivative.

The 2-D smoother extends a field across both walls by second-order
polynomial reflection, convolves with the radial bump sampled on the grid's
lines u = l*hy (transformed in x, grid-sampled in y), applied to every row
at once as one contraction, and restricts back to the strip.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import ConfigurationError, Grid, wavenumbers

#: Number of sample points across each line of a kernel's support.
KERNEL_SAMPLES = 257


def _simpson(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson rule along the last axis of f, sampled at x.

    x holds an odd number of equally spaced points.
    """
    weights = np.full(x.size, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return np.sum(f * weights, axis=-1) * ((x[-1] - x[0]) / (3 * (x.size - 1)))


def bump(u: np.ndarray) -> np.ndarray:
    """Unnormalized C-infinity bump exp(-1/(1-u^2)) on |u| < 1, else 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _bump_rows(width: float, us: np.ndarray, nx: int):
    """Cos-transforms over the rfft modes and masses of the bump's lines.

    Line u samples bump(sqrt(s^2 + u^2)/width) on its chord
    |s| <= width*sqrt(1 - (u/width)^2) at KERNEL_SAMPLES points that mirror
    each other bit for bit, so every line is exactly even (linspace alone
    is off by a few ulps); a line off the support has zero transform and
    mass.
    """
    t = np.linspace(-1.0, 1.0, KERNEL_SAMPLES)
    t = 0.5 * (t - t[::-1])
    k = wavenumbers(nx)
    symbols, masses = [], []
    for u in us:
        s = width * np.sqrt(max(1.0 - (u / width) ** 2, 0.0)) * t
        vals = bump(np.sqrt(s * s + u * u) / width)
        symbols.append(_simpson(vals * np.cos(np.outer(k, s)), s))
        masses.append(_simpson(vals, s))
    return np.array(symbols), np.array(masses)


@lru_cache(maxsize=64)
def _layer_symbol(width: float, nx: int) -> np.ndarray:
    """The layer symbol over the rfft modes, |c| <= 1, shared and read-only."""
    symbols, masses = _bump_rows(width, [0.0], nx)
    sym = symbols[0] / masses[0]
    sym.flags.writeable = False
    return sym


def smooth_horizontal(f: np.ndarray, width: float) -> np.ndarray:
    """Horizontal convolution by layers at every fixed y (or on an edge field)."""
    if not 0.0 < width < np.pi:
        raise ConfigurationError(
            "kernel width must be positive and < pi to fit the torus once")
    nx = f.shape[0]
    sym = _layer_symbol(float(width), nx)
    coef = np.fft.rfft(f, axis=0)
    coef *= sym.reshape((-1,) + (1,) * (f.ndim - 1))
    return np.fft.irfft(coef, n=nx, axis=0)


def _reflect_extend(f: np.ndarray, layers: int) -> np.ndarray:
    """Extend past both walls by second-order polynomial reflection.

    Ghost values come from the quadratic fitted to the three wall rows
    (exact on parabolas), so data vanishing near a wall extends by zero;
    a mirror formula sampling at double depth would drag far-field values
    into the collar.
    """
    ny = f.shape[-1]
    if layers > ny - 3:
        raise ConfigurationError("smoothing width too large for the wall collar")
    j = np.arange(1, layers + 1)
    c0 = (j + 1.0) * (j + 2.0) / 2.0
    c1 = -j * (j + 2.0)
    c2 = j * (j + 1.0) / 2.0
    low = c0 * f[..., :1] + c1 * f[..., 1:2] + c2 * f[..., 2:3]
    high = c0 * f[..., -1:] + c1 * f[..., -2:-1] + c2 * f[..., -3:-2]
    return np.concatenate((low[..., ::-1], f, high), axis=-1)


@lru_cache(maxsize=32)
def _planar_rows(width: float, nx: int, hy: float):
    """Per-row Fourier symbols of the radial 2-D mollifier, row -L first.

    The bump's lines u = l*hy, |l| <= L = floor(width/hy), are divided by
    their total mass, so constants are preserved exactly; the symbols are
    read-only.
    """
    layers = int(np.floor(width / hy))
    symbols, masses = _bump_rows(width, hy * np.arange(-layers, layers + 1), nx)
    symbols /= masses.sum()
    symbols.flags.writeable = False
    return layers, symbols


def smooth_2d(f: np.ndarray, width: float, grid: Grid) -> np.ndarray:
    """Two-dimensional mollification with wall extension, restricted back."""
    if not 0.0 < width <= 0.2:
        raise ConfigurationError("2-D smoothing width must lie in (0, 0.2]")
    layers, symbols = _planar_rows(float(width), grid.nx, grid.hy)
    coef = np.fft.rfft(_reflect_extend(f, layers), axis=0)
    # window l of each mode's extended column is the rows shifted by l - L
    rows = sliding_window_view(coef, grid.ny, axis=1)
    return np.fft.irfft(np.einsum("lk,kly->ky", symbols, rows), n=grid.nx, axis=0)


def smooth_double(f: np.ndarray, width: float) -> np.ndarray:
    """The composition smooth_horizontal o smooth_horizontal."""
    return smooth_horizontal(smooth_horizontal(f, width), width)
