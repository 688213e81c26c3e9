"""Mollification operators: horizontal convolution by layers and 2-D smoothing.

The layer operator convolves each horizontal line of a field with the
compactly supported bump rho_width(x) = (1/width) * rho(x/width),
rho(x) = c * exp(-1/(1-x^2)) on |x| < 1, normalized to unit mass.  On the
periodic grid it is realized as a Fourier multiplier whose symbol is the
quadrature transform of the sampled kernel; this is the exact periodic
convolution for band-limited data, it preserves constants exactly and
commutes with the spectral x-derivative.

The 2-D smoother extends a field across both walls by second-order
polynomial reflection, convolves with the radial bump of the same shape,
and restricts back to the strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import ConfigurationError, Grid, wavenumbers

#: Minimum number of sample points across a kernel's support.
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


@dataclass(frozen=True)
class Kernel:
    """Sampled one-dimensional mollifier of a given width."""

    width: float
    offsets: np.ndarray
    values: np.ndarray

    @classmethod
    def build(cls, width: float, samples: int = KERNEL_SAMPLES) -> "Kernel":
        if width <= 0:
            raise ConfigurationError("kernel width must be positive")
        if samples < 64:
            raise ConfigurationError("kernel must be sampled at >= 64 points")
        if samples % 2 == 0:
            raise ConfigurationError("Simpson's rule needs an odd sample count")
        # the samples of [-1, 1] mirror each other bit for bit, so the
        # kernel is exactly even (linspace alone is off by a few ulps)
        u = np.linspace(-1.0, 1.0, samples)
        u = 0.5 * (u - u[::-1])
        offsets = width * u
        values = bump(u) / width
        mass = _simpson(values, offsets)
        return cls(width=width, offsets=offsets, values=values / mass)

    def mass(self) -> float:
        return float(_simpson(self.values, self.offsets))

    def transform(self, k: np.ndarray) -> np.ndarray:
        """Fourier symbol c(k) = integral rho_width(s) cos(ks) ds, |c| <= 1."""
        return _simpson(self.values * np.cos(np.outer(k, self.offsets)),
                        self.offsets)


@lru_cache(maxsize=64)
def _layer_symbol(width: float, nx: int) -> np.ndarray:
    """The layer symbol over the rfft modes, shared and read-only."""
    sym = Kernel.build(width).transform(wavenumbers(nx))
    sym.flags.writeable = False
    return sym


def smooth_horizontal(f: np.ndarray, width: float) -> np.ndarray:
    """Horizontal convolution by layers at every fixed y (or on an edge field)."""
    if width >= np.pi:
        raise ConfigurationError("kernel width must be < pi to fit the torus once")
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
    """Per-row Fourier symbols and weights of the radial 2-D mollifier.

    The kernel is sampled on horizontal lines u = l*hy, |l| <= width/hy;
    each line is transformed by quadrature in x (exact for band-limited
    fields) while y stays grid-sampled.  Weights are renormalized to unit
    total mass so constants are preserved exactly; the symbols are read-only.
    """
    layers = int(np.floor(width / hy))
    k = wavenumbers(nx)
    symbols = []
    masses = []
    for l in range(-layers, layers + 1):
        u = l * hy
        half = width * np.sqrt(max(1.0 - (u / width) ** 2, 0.0))
        if half <= 0.0:
            symbols.append(np.zeros_like(k))
            masses.append(0.0)
            continue
        s = np.linspace(-half, half, KERNEL_SAMPLES)
        vals = bump(np.sqrt(s * s + u * u) / width)
        symbols.append(_simpson(vals * np.cos(np.outer(k, s)), s))
        masses.append(_simpson(vals, s))
    total = float(np.sum(masses)) * hy
    symbols = np.array(symbols) * hy / total
    symbols.flags.writeable = False
    return layers, symbols


def smooth_2d(f: np.ndarray, width: float, grid: Grid) -> np.ndarray:
    """Two-dimensional mollification with wall extension, restricted back."""
    if width > 0.2:
        raise ConfigurationError("2-D smoothing width must be <= 0.2")
    layers, symbols = _planar_rows(float(width), grid.nx, grid.hy)
    ext = _reflect_extend(f, layers)
    coef = np.fft.rfft(ext, axis=0)
    out = np.zeros_like(coef[:, layers : layers + grid.ny])
    for idx, l in enumerate(range(-layers, layers + 1)):
        sl = coef[:, layers + l : layers + l + grid.ny]
        out += symbols[idx][:, None] * sl
    return np.fft.irfft(out, n=grid.nx, axis=0)


def smooth_double(f: np.ndarray, width: float) -> np.ndarray:
    """The composition smooth_horizontal o smooth_horizontal."""
    return smooth_horizontal(smooth_horizontal(f, width), width)
