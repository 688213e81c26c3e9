"""The strip solver and the wall stencil it shares with the stepper."""

from __future__ import annotations

import numpy as np
import pytest

from stefansim.numerics import (
    SECOND_DIFFERENCE,
    WALL_SLOPE,
    ConfigurationError,
    Grid,
    vertical_derivative,
    wall_slope,
    wavenumbers,
)
from stefansim.elliptic import (
    DIRICHLET,
    NEUMANN,
    ROBIN,
    EdgeCondition,
    EllipticSolveError,
    StripSolver,
)
from stefansim.geometry import metric_bundle
from stefansim.operators import compute_velocity, flat_laplacian
from stefansim.stepper import height_rate

GRID = Grid(16, 33)
DT = 2.5e-5

# every pairing the package builds: the Poisson solves (Dirichlet bottom,
# Neumann or Dirichlet top) and the heat solves (Dirichlet or Robin bottom)
PAIRINGS = (
    (0.0, EdgeCondition(DIRICHLET), EdgeCondition(NEUMANN)),
    (1.0 / DT, EdgeCondition(DIRICHLET), EdgeCondition(NEUMANN)),
    (0.0, EdgeCondition(DIRICHLET), EdgeCondition(DIRICHLET)),
    (1.0 / DT, EdgeCondition(ROBIN, coef=-0.05**2), EdgeCondition(NEUMANN)),
)


@pytest.mark.parametrize("c, bottom, top", PAIRINGS)
def test_strip_solver_rows(c, bottom, top):
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal((GRID.nx, GRID.ny))
    edge_b = rng.standard_normal(GRID.nx)
    edge_t = rng.standard_normal(GRID.nx) if top.kind == DIRICHLET else None
    u = StripSolver(GRID, c, bottom, top).solve(rhs, edge_b, edge_t)
    hy = GRID.hy

    # interior rows: c u - Lap(u) = f with the field operators' stencils
    lap = flat_laplacian(GRID, u)
    resid = c * u - lap - rhs
    scale = np.max(np.abs(c * u)) + np.max(np.abs(lap))
    assert np.max(np.abs(resid[:, 1:-1])) <= 1e-12 * scale

    # wall rows give the edge data
    if bottom.kind == ROBIN:
        trace = u[:, 0] + bottom.coef * wall_slope(u, hy)
    else:
        trace = u[:, 0]
    np.testing.assert_allclose(trace, edge_b, rtol=0.0, atol=1e-12)
    if top.kind == DIRICHLET:
        np.testing.assert_allclose(u[:, -1], edge_t, rtol=0.0, atol=1e-12)
    else:
        flux = vertical_derivative(u, hy)[:, -1]
        assert np.max(np.abs(flux)) <= 1e-12 * np.max(np.abs(u)) / hy


def _dense_mode_matrix(c, bottom, top, k, ny):
    # the full ny x ny system of one Fourier mode, wall rows included
    hy = 1.0 / (ny - 1)
    mat = np.zeros((ny, ny))
    for j in range(1, ny - 1):
        mat[j, j - 1:j + 2] = -np.array(SECOND_DIFFERENCE) / hy**2
        mat[j, j] += c + k**2
    mat[0, 0] = 1.0
    if bottom.kind == ROBIN:
        mat[0, :3] += bottom.coef * np.array(WALL_SLOPE) / (2.0 * hy)
    if top.kind == DIRICHLET:
        mat[-1, -1] = 1.0
    else:
        mat[-1, [-1, -2, -3]] = -np.array(WALL_SLOPE) / (2.0 * hy)
    return mat


# no reduction level, a size 2^p + 1 with no padding, and a padded size
@pytest.mark.parametrize("ny", [17, 33, 40])
@pytest.mark.parametrize("c, bottom, top", PAIRINGS)
def test_strip_solver_matches_dense_oracle(c, bottom, top, ny):
    grid = Grid(16, ny)
    modes = grid.nx // 2 + 1
    rng = np.random.default_rng(ny)
    rhs = rng.standard_normal((modes, ny)) + 1j * rng.standard_normal((modes, ny))
    edge_b = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    edge_t = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    u = StripSolver(grid, c, bottom, top).solve_modes(rhs, edge_b, edge_t)
    for m, k in enumerate(wavenumbers(grid.nx)):
        b = rhs[m].copy()
        b[0], b[-1] = edge_b[m], edge_t[m]
        ref = np.linalg.solve(_dense_mode_matrix(c, bottom, top, k, ny), b)
        assert np.max(np.abs(u[m] - ref)) <= 1e-12 * np.max(np.abs(ref))
    if bottom.kind == DIRICHLET:
        assert np.array_equal(u[:, 0], edge_b)
    if top.kind == DIRICHLET:
        assert np.array_equal(u[:, -1], edge_t)


def test_strip_solver_rejects_a_non_finite_pivot():
    with pytest.raises(EllipticSolveError, match="pivot"):
        StripSolver(GRID, float("nan"), EdgeCondition(DIRICHLET), EdgeCondition(NEUMANN))


@pytest.mark.parametrize("bottom, top", [
    (NEUMANN, NEUMANN),
    (NEUMANN, DIRICHLET),
    (DIRICHLET, ROBIN),
    ("periodic", NEUMANN),
])
def test_strip_solver_rejects_unsupported_pairings(bottom, top):
    with pytest.raises(ConfigurationError, match="unsupported edge pairing"):
        StripSolver(GRID, 1.0, EdgeCondition(bottom), EdgeCondition(top))


def test_flat_robin_correction_vanishes_exactly():
    # the lagged Robin correction of the kappa stepper is the interface
    # speed minus the implicit row's slope; on flat geometry the two use
    # one stencil, so the difference is exactly zero, not merely small
    rng = np.random.default_rng(4)
    q = rng.standard_normal((GRID.nx, GRID.ny))
    bundle = metric_bundle(GRID, np.zeros(GRID.nx))
    v = compute_velocity(GRID, bundle, q)
    corr = height_rate(bundle, v) - wall_slope(q, GRID.hy)
    assert np.all(corr == 0.0)
