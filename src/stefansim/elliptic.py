"""Mode-wise strip solver for elliptic and heat problems.

The implicit operators all take the form  c*u - Laplacian(u)  with
constant c >= 0; per Fourier mode in x this is a one-dimensional
two-point boundary-value problem in y.  Eliminating the two wall rows
(whose one-sided stencils touch three points) leaves a tridiagonal system
per mode, solved for all modes at once by cyclic reduction in numpy
(Hockney, J. ACM 12, 1965; Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
7, 1970); no LAPACK routine is involved.

Variable-coefficient problems are reduced to this flat solve by a fixed
point: the gauge-deviation part of the operator is lagged and iterated
until the discrete residual of the full transformed equation meets
``FIXED_POINT_TOL`` relative to the data.
"""

from __future__ import annotations

import numpy as np

from .numerics import (
    SECOND_DIFFERENCE,
    WALL_SLOPE,
    ConfigurationError,
    Grid,
    NumericsError,
    wavenumbers,
)
from .geometry import MetricBundle
from .operators import flat_laplacian, gauge_deviation


class EllipticSolveError(NumericsError):
    """A strip factorization met a zero or non-finite pivot, or a
    variable-coefficient fixed point diverged."""


#: Walls as (a, b) of the row  a*u + b*u_y = data, with u_y the
#: y-derivative's wall stencil ``numerics.WALL_SLOPE`` (mirrored at the top
#: wall, so the discrete flux of a homogeneous Neumann solve is zero
#: identically).  A Robin row is (1.0, coef).
DIRICHLET = (1.0, 0.0)
NEUMANN = (0.0, 1.0)

#: Unknowns per mode at or below which cyclic reduction stops and the
#: remaining system is inverted densely.
_DENSE_BLOCK = 15
#: Residual of the lagged-deviation fixed point, relative to the largest of
#: the data and 1, and its iteration limit (``solve_transformed_poisson``).
FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_ITER = 200


class StripSolver:
    """Factory for repeated solves of  c*u - Lap(u) = f  on the strip.

    Both wall values of each mode are eliminated into the adjacent interior
    rows, which leaves one tridiagonal system per mode.  The constructor
    runs cyclic reduction on the coefficients of all modes at once, padded
    with identity rows to 2^p - 1 unknowns, down to a block small enough for
    a batched dense inverse; ``solve_modes`` replays the reduction on the
    right side and back-substitutes.
    """

    def __init__(self, grid: Grid, c: float, bottom: tuple, top: tuple):
        # at c = 0 the k = 0 mode is singular exactly when a profile p + s*y
        # (the stencils are exact on it) meets both walls: slope rows on both,
        # or u + u_y under a Dirichlet top.  Rounding hides it from the pivots.
        (ab, bb), (at, bt) = bottom, top
        if float(c) == 0.0 and ab * (at + bt) == bb * at:
            raise ConfigurationError(f"walls {bottom} and {top} are singular at c = 0")
        self.grid = grid
        self.c = float(c)
        self.bottom = bottom
        self.top = top
        self._factor()

    def _factor(self) -> None:
        ny, hy = self.grid.ny, self.grid.hy
        k = wavenumbers(self.grid.nx)
        n = ny - 2
        lo, mid, hi = SECOND_DIFFERENCE
        sub, sup = -lo / hy**2, -hi / hy**2
        # wall rows  e0*u_wall + e1*u_next + e2*u_next2 = data, solved for
        # u_wall and substituted into the first and last interior rows
        self._bottom_row = _wall_row(self.bottom, hy, 1.0)
        self._top_row = _wall_row(self.top, hy, -1.0)
        b0, b1, b2 = self._bottom_row
        t0, t1, t2 = self._top_row
        _check_pivots(np.array([b0, t0]))
        self._bottom_gain = sub / b0
        self._top_gain = sup / t0
        # a, b, c[j, m]: coefficients of u[j], u[j+1], u[j+2] in interior row
        # j+1, padded to 2^p - 1 rows with decoupled identity rows.  Columns
        # hold the modes, each twice: the coefficients are real, so the solve
        # sweeps the real and imaginary parts of a right side as adjacent
        # columns, and every sweep is row-wise over contiguous memory.
        size = 2 ** n.bit_length() - 1
        k2 = np.repeat(k**2, 2)
        a = np.zeros((size, len(k2)))
        b = np.ones((size, len(k2)))
        c = np.zeros((size, len(k2)))
        a[1:n] = sub
        b[:n] = self.c - mid / hy**2 + k2
        c[:n - 1] = sup
        b[0] -= self._bottom_gain * b1
        c[0] -= self._bottom_gain * b2
        b[n - 1] -= self._top_gain * t1
        a[n - 1] -= self._top_gain * t2
        self._size = size
        self._levels = []
        while size > _DENSE_BLOCK:
            # eliminate the even rows into the odd ones
            ae, be, ce = a[0::2], b[0::2], c[0::2]
            _check_pivots(be)
            recip = 1.0 / be
            alpha = -a[1::2] * recip[:-1]
            gamma = -c[1::2] * recip[1:]
            self._levels.append((alpha, gamma, recip, (ae * recip)[1:],
                                 (ce * recip)[:-1]))
            a, b, c = (alpha * ae[:-1],
                       b[1::2] + alpha * ce[:-1] + gamma * ae[1:],
                       gamma * ce[1:])
            size = len(b)
        # invert the remaining block by elimination on identity right sides:
        # inv[i, j, m] is entry (i, j) of the inverse for column m
        inv = np.zeros((size, size, len(k2)))
        inv[np.arange(size), np.arange(size)] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(1, size):
                w = a[i] / b[i - 1]
                b[i] -= w * c[i - 1]
                inv[i] -= w * inv[i - 1]
            _check_pivots(b)
            inv[-1] /= b[-1]
            for i in range(size - 2, -1, -1):
                inv[i] = (inv[i] - c[i] * inv[i + 1]) / b[i]
        self._block_inv = inv

    def solve_modes(self, rhs_hat: np.ndarray, bottom_hat: np.ndarray, top_hat: np.ndarray) -> np.ndarray:
        """Solve with spectral right sides; boundary rows get the edge data."""
        modes, ny = rhs_hat.shape
        n = ny - 2
        d = np.zeros((self._size, modes), dtype=complex)
        d[:n] = rhs_hat[:, 1:-1].T
        d[0] -= self._bottom_gain * bottom_hat
        d[n - 1] -= self._top_gain * top_hat
        d = d.view(float)
        sides = []
        for alpha, gamma, _, _, _ in self._levels:
            sides.append(d)
            d = d[1::2] + alpha * d[0:-1:2] + gamma * d[2::2]
        x = np.einsum("ijm,jm->im", self._block_inv, d)
        for (_, _, recip, a_ratio, c_ratio), d in zip(reversed(self._levels),
                                                      reversed(sides)):
            # the eliminated rows from the kept ones, then the kept rows
            full = np.empty_like(d)
            even = full[0::2]
            np.multiply(d[0::2], recip, out=even)
            even[1:] -= a_ratio * x
            even[:-1] -= c_ratio * x
            full[1::2] = x
            x = full
        u = np.empty((modes, ny), dtype=complex)
        u[:, 1:-1] = x[:n].view(complex).T
        b0, b1, b2 = self._bottom_row
        t0, t1, t2 = self._top_row
        u[:, 0] = (bottom_hat - b1 * u[:, 1] - b2 * u[:, 2]) / b0
        u[:, -1] = (top_hat - t1 * u[:, -2] - t2 * u[:, -3]) / t0
        return u

    def solve_to_modes(self, rhs: np.ndarray, bottom: np.ndarray | None,
                       top: np.ndarray | None) -> np.ndarray:
        """The rfft modes in x of the solution for physical-space right sides."""
        rh = np.fft.rfft(rhs, axis=0)
        bh = 0.0 if bottom is None else np.fft.rfft(bottom)
        th = 0.0 if top is None else np.fft.rfft(top)
        return self.solve_modes(rh, bh, th)

    def solve(self, rhs: np.ndarray, bottom: np.ndarray | None, top: np.ndarray | None) -> np.ndarray:
        """Solve with physical-space right sides; None edge data means zero."""
        return np.fft.irfft(self.solve_to_modes(rhs, bottom, top), n=self.grid.nx, axis=0)


def _wall_row(wall: tuple, hy: float, inward: float) -> tuple:
    # (e0, e1, e2) of  e0*u_wall + e1*u_next + e2*u_next2 = data: the row
    # a*u + b*u_y, its wall slope taken along the rows inward (+1 at the
    # bottom wall, -1 at the top)
    a, b = wall
    s = inward * b / (2.0 * hy)
    w0, w1, w2 = WALL_SLOPE
    return (a + w0 * s, w1 * s, w2 * s)


def _check_pivots(pivots: np.ndarray) -> None:
    if not np.all(np.isfinite(pivots)) or np.any(pivots == 0.0):
        raise EllipticSolveError("zero or non-finite pivot in the strip factorization")


def solve_transformed_poisson(
    grid: Grid,
    bundle: MetricBundle,
    rhs: np.ndarray,
    bottom_values: np.ndarray,
    top: tuple,
    top_values: np.ndarray | None = None,
):
    """Solve  TransformedLaplacian(u) = rhs  with a lagged-deviation fixed point.

    The lower edge is Dirichlet with the given trace; the top wall is an
    (a, b) row, ``DIRICHLET`` or ``NEUMANN``.  Returns (u, residual,
    iterations) where the residual is the sup norm of the discrete
    transformed equation over the interior rows.
    """
    solver = StripSolver(grid, 0.0, DIRICHLET, top)
    if top_values is None:
        top_values = np.zeros(grid.nx)
    # the strip solver realizes c*u - Lap(u) = f, so the Poisson right side
    # enters negated
    u = solver.solve(-rhs, bottom_values, top_values)
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(bottom_values))), 1.0)
    delta = np.inf
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        deviation = gauge_deviation(grid, bundle, u)
        if deviation is None:
            deviation = 0.0
        full = flat_laplacian(grid, u) + deviation
        resid = float(np.max(np.abs((full - rhs)[:, 1:-1])))
        if resid <= FIXED_POINT_TOL * scale or delta <= 1e-15 * scale:
            return u, resid, it - 1
        u_new = solver.solve(deviation - rhs, bottom_values, top_values)
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
    raise EllipticSolveError(
        f"fixed-point solve stalled after {FIXED_POINT_MAX_ITER} iterations, "
        f"residual {resid:.3e}, last increment {delta:.3e}"
    )
