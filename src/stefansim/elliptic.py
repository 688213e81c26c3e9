"""Mode-wise banded solver for strip elliptic and heat problems.

The implicit operators all take the form  c*u - Laplacian(u)  with
constant c >= 0; per Fourier mode in x this is a one-dimensional
two-point boundary-value problem in y solved with a pentadiagonal-capable
banded factorization (the one-sided boundary rows touch three points).
All modes are stacked into one block-banded system so a single LAPACK
call handles a step or an iteration.

Variable-coefficient problems are reduced to this flat solve by a fixed
point: the gauge-deviation part of the operator is lagged and iterated
until the discrete residual of the full transformed equation meets the
requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

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
    """Fixed-point iteration for a variable-coefficient solve diverged."""


#: Boundary-row tags.
DIRICHLET = "dirichlet"
NEUMANN = "neumann"
ROBIN = "robin"


@dataclass(frozen=True)
class EdgeCondition:
    """Boundary row specification for the banded solve.

    Dirichlet rows pin the edge value.  A Robin row (lower edge only)
    imposes  u + coef * u_y = value, a Neumann row (top edge only)  u_y =
    value, both with the y-derivative's wall stencil ``numerics.WALL_SLOPE``,
    so the discrete flux of a homogeneous Neumann solve is zero identically.
    """

    kind: str
    coef: float = 0.0


class StripSolver:
    """Factory for repeated solves of  c*u - Lap(u) = f  on the strip."""

    def __init__(self, grid: Grid, c: float, bottom: EdgeCondition, top: EdgeCondition):
        if (bottom.kind not in (DIRICHLET, ROBIN)
                or top.kind not in (DIRICHLET, NEUMANN)):
            raise ConfigurationError(
                f"unsupported edge pairing: {bottom.kind} bottom, {top.kind} top")
        self.grid = grid
        self.c = float(c)
        self.bottom = bottom
        self.top = top
        self._assemble()

    def _assemble(self) -> None:
        ny, hy = self.grid.ny, self.grid.hy
        k = wavenumbers(self.grid.nx)
        # bands[2 - off][m, j]: coefficient of u[m, j + off] in row j of mode m
        bands = np.zeros((5, len(k), ny))
        lo, mid, hi = SECOND_DIFFERENCE
        bands[1, :, 1:-1] = -hi / hy**2
        bands[2, :, 1:-1] = self.c - mid / hy**2 + k[:, None] ** 2
        bands[3, :, 1:-1] = -lo / hy**2
        bands[2, :, [0, -1]] = 1.0
        if self.bottom.kind == ROBIN:
            # u + coef * wall_slope(u)
            s = self.bottom.coef / (2.0 * hy)
            for off, w in enumerate(WALL_SLOPE):
                bands[2 - off, :, 0] += w * s
        if self.top.kind == NEUMANN:
            # u_y with the wall stencil mirrored: negated weights, rows inward
            s = 1.0 / (2.0 * hy)
            for off, w in enumerate(WALL_SLOPE):
                bands[2 + off, :, -1] = -w * s
        # LAPACK gbtrf layout ab[kl + ku + i - j, j], with kl rows of fill on top
        lab = np.zeros((7, bands[0].size))
        for r in range(5):
            lab[2 + r] = np.roll(bands[r].ravel(), 2 - r)
        lu, piv, info = dgbtrf(lab, 2, 2)
        if info != 0:
            raise EllipticSolveError(f"banded factorization failed, info={info}")
        self._lu = lu
        self._piv = piv

    def solve_modes(self, rhs_hat: np.ndarray, bottom_hat: np.ndarray, top_hat: np.ndarray) -> np.ndarray:
        """Solve with spectral right sides; boundary rows get the edge data."""
        b = rhs_hat.copy()
        b[:, 0] = bottom_hat
        b[:, -1] = top_hat
        flat = b.reshape(-1)
        stacked = np.column_stack((flat.real, flat.imag))
        sol, info = dgbtrs(self._lu, 2, 2, stacked, self._piv)
        if info != 0:
            raise EllipticSolveError(f"banded back-substitution failed, info={info}")
        return (sol[:, 0] + 1j * sol[:, 1]).reshape(rhs_hat.shape)

    def solve(self, rhs: np.ndarray, bottom: np.ndarray | None, top: np.ndarray | None) -> np.ndarray:
        """Solve with physical-space right sides; None edge data means zero."""
        rh = np.fft.rfft(rhs, axis=0)
        bh = 0.0 if bottom is None else np.fft.rfft(bottom)
        th = 0.0 if top is None else np.fft.rfft(top)
        return np.fft.irfft(self.solve_modes(rh, bh, th), n=self.grid.nx, axis=0)


def solve_transformed_poisson(
    grid: Grid,
    bundle: MetricBundle,
    rhs: np.ndarray,
    bottom_values: np.ndarray,
    top: EdgeCondition,
    top_values: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Solve  TransformedLaplacian(u) = rhs  with a lagged-deviation fixed point.

    The lower edge is Dirichlet with the given trace; the top edge is
    Dirichlet or homogeneous Neumann.  Returns (u, residual, iterations)
    where the residual is the sup norm of the discrete transformed
    equation over the interior rows.
    """
    solver = StripSolver(grid, 0.0, EdgeCondition(DIRICHLET), top)
    if top_values is None:
        top_values = np.zeros(grid.nx)
    # the banded solver realizes c*u - Lap(u) = f, so the Poisson right side
    # enters negated
    u = solver.solve(-rhs, bottom_values, top_values)
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(bottom_values))), 1.0)
    resid_tol = max(tol, 1e-8) * scale
    delta = np.inf
    for it in range(1, max_iter + 1):
        deviation = gauge_deviation(grid, bundle, u)
        if deviation is None:
            deviation = 0.0
        full = flat_laplacian(grid, u) + deviation
        resid = float(np.max(np.abs((full - rhs)[:, 1:-1])))
        if resid <= resid_tol or delta <= 1e-15 * scale:
            return u, resid, it - 1
        u_new = solver.solve(deviation - rhs, bottom_values, top_values)
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
    raise EllipticSolveError(
        f"fixed-point solve stalled after {max_iter} iterations, "
        f"residual {resid:.3e}, last increment {delta:.3e}"
    )
