"""The strip solver and the wall stencil it shares with the stepper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stefansim.numerics import (
    SECOND_DIFFERENCE,
    WALL_SLOPE,
    ConfigurationError,
    Grid,
    vertical_derivative,
    wall_slope,
    wavenumbers,
)
from stefansim.elliptic import DIRICHLET, NEUMANN, EllipticSolveError, StripSolver
from stefansim.geometry import metric_bundle
from stefansim.operators import compute_velocity, flat_laplacian
from stefansim.stepper import SolverConfig, height_rate

GRID = Grid(16, 33)
DT = 2.5e-5

# every pairing the package builds: the Poisson solves (Dirichlet bottom,
# Neumann or Dirichlet top) and the heat solves (Dirichlet or Robin bottom)
PAIRINGS = (
    (0.0, DIRICHLET, NEUMANN),
    (1.0 / DT, DIRICHLET, NEUMANN),
    (0.0, DIRICHLET, DIRICHLET),
    (1.0 / DT, (1.0, -0.05**2), NEUMANN),
)


@pytest.mark.parametrize("c, bottom, top", PAIRINGS)
def test_strip_solver_rows(c, bottom, top):
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal((GRID.nx, GRID.ny))
    edge_b = rng.standard_normal(GRID.nx)
    edge_t = rng.standard_normal(GRID.nx) if top == DIRICHLET else None
    u = StripSolver(GRID, c, bottom, top).solve(rhs, edge_b, edge_t)
    hy = GRID.hy

    # interior rows: c u - Lap(u) = f with the field operators' stencils
    lap = flat_laplacian(GRID, u)
    resid = c * u - lap - rhs
    scale = np.max(np.abs(c * u)) + np.max(np.abs(lap))
    assert np.max(np.abs(resid[:, 1:-1])) <= 1e-12 * scale

    # wall rows give the edge data
    trace = bottom[0] * u[:, 0] + bottom[1] * wall_slope(u, hy)
    np.testing.assert_allclose(trace, edge_b, rtol=0.0, atol=1e-12)
    if top == DIRICHLET:
        np.testing.assert_allclose(u[:, -1], edge_t, rtol=0.0, atol=1e-12)
    else:
        flux = vertical_derivative(u, hy)[:, -1]
        assert np.max(np.abs(flux)) <= 1e-12 * np.max(np.abs(u)) / hy


def _dense_mode_matrix(c, bottom, top, k, ny):
    # the full ny x ny system of one Fourier mode, wall rows included: each
    # wall's row  a*u + b*u_y  with the wall slope taken inward
    hy = 1.0 / (ny - 1)
    mat = np.zeros((ny, ny))
    for j in range(1, ny - 1):
        mat[j, j - 1:j + 2] = -np.array(SECOND_DIFFERENCE) / hy**2
        mat[j, j] += c + k**2
    for row, (a, b), inward in ((0, bottom, 1), (-1, top, -1)):
        mat[row, row] = a
        mat[row, [row, row + inward, row + 2 * inward]] += (
            inward * b * np.array(WALL_SLOPE) / (2.0 * hy))
    return mat


def _dense_oracle_systems(c, bottom, top, ny):
    # the solver's modes for random spectral data, with each mode's dense
    # system (matrix, right side)
    grid = Grid(16, ny)
    modes = grid.nx // 2 + 1
    rng = np.random.default_rng(ny)
    rhs = rng.standard_normal((modes, ny)) + 1j * rng.standard_normal((modes, ny))
    edge_b = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    edge_t = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    u = StripSolver(grid, c, bottom, top).solve_modes(rhs, edge_b, edge_t)
    systems = []
    for m, k in enumerate(wavenumbers(grid.nx)):
        f = rhs[m].copy()
        f[0], f[-1] = edge_b[m], edge_t[m]
        systems.append((_dense_mode_matrix(c, bottom, top, k, ny), f))
    return u, edge_b, edge_t, systems


# no reduction level, a size 2^p + 1 with no padding, and a padded size
@pytest.mark.parametrize("ny", [17, 33, 40])
@pytest.mark.parametrize("c, bottom, top", PAIRINGS)
def test_strip_solver_matches_dense_oracle(c, bottom, top, ny):
    u, edge_b, edge_t, systems = _dense_oracle_systems(c, bottom, top, ny)
    for u_m, (mat, f) in zip(u, systems):
        ref = np.linalg.solve(mat, f)
        assert np.max(np.abs(u_m - ref)) <= 1e-12 * np.max(np.abs(ref))
    if bottom == DIRICHLET:
        assert np.array_equal(u[:, 0], edge_b)
    if top == DIRICHLET:
        assert np.array_equal(u[:, -1], edge_t)


# a in {0, 1}, b in {0, +-small, 1}: Dirichlet, Neumann, Robin rows of
# either sign and scaled slope rows, on either wall
_WALLS = st.tuples(st.sampled_from([0.0, 1.0]),
                   st.sampled_from([0.0, 1e-3, -1e-3, -0.05**2, 1.0]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(bottom=_WALLS, top=_WALLS, c=st.sampled_from([0.0, 1.0 / DT]),
       ny=st.sampled_from([17, 33, 40]))
@example(bottom=(1.0, 1.0), top=DIRICHLET, c=0.0, ny=40)
@example(bottom=(1.0, 1.0), top=(1.0, 1.0), c=0.0, ny=40)
def test_strip_solver_residual_is_rounding_for_every_wall_row(bottom, top, c, ny):
    # a wall with a = b = 0 poses no condition
    assume(bottom != (0.0, 0.0) and top != (0.0, 0.0))
    (ab, bb), (at, bt) = bottom, top
    if c == 0.0 and ab * (at + bt) == bb * at:
        # a linear profile satisfies both walls: the k = 0 mode is singular
        with pytest.raises(ConfigurationError, match="singular"):
            StripSolver(Grid(16, ny), c, bottom, top)
        return
    # the residual, not the distance to a dense solve: a Robin row of the
    # anti-dissipative sign makes some draws nearly singular (bottom and top
    # (1, 1) at c = 0 are singular at k = 1 in the continuum), and there
    # both solves carry cond * eps
    u, _, _, systems = _dense_oracle_systems(c, bottom, top, ny)
    for u_m, (mat, f) in zip(u, systems):
        scale = np.max(np.abs(mat).sum(axis=1)) * np.max(np.abs(u_m)) + np.max(np.abs(f))
        assert np.max(np.abs(mat @ u_m - f)) <= 1e-14 * scale


def test_classical_heat_row_is_the_kappa_row_at_zero():
    # the interface row q - kappa^2 q_y at kappa = 0 is the Dirichlet row
    config = SolverConfig(nx=GRID.nx, ny=GRID.ny, dt=DT, t_end=DT, kappa=0.0)
    rhs = np.random.default_rng(5).standard_normal((GRID.nx, GRID.ny))
    direct = StripSolver(GRID, 1.0 / DT, DIRICHLET, NEUMANN)
    assert np.array_equal(config.heat_solver.solve(rhs, None, None),
                          direct.solve(rhs, None, None))


def test_strip_solver_rejects_a_non_finite_pivot():
    with pytest.raises(EllipticSolveError, match="pivot"):
        StripSolver(GRID, float("nan"), DIRICHLET, NEUMANN)


# no reduction level, a size 2^p + 1, and a padded size: at ny = 40 the
# pivots alone let the singular k = 0 mode through
@pytest.mark.parametrize("ny", [17, 33, 40])
def test_strip_solver_rejects_unsupported_pairings(ny):
    with pytest.raises(ConfigurationError, match="singular"):
        StripSolver(Grid(16, ny), 0.0, NEUMANN, NEUMANN)


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
