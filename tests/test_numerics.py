"""Discrete substrate: differentiation, norms, quadrature, time derivatives."""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from stefansim.numerics import (
    ConfigurationError,
    Grid,
    NeedsMoreStepsError,
    ResolutionError,
    edge_derivative,
    edge_squares,
    integrate_interior,
    mixed_squares,
    tangential_derivative,
    time_derivative,
    vertical_derivative,
    x_derivatives,
)
from diagnostics import boundary_norm, integrate_boundary, interior_norm

GRID = Grid(64, 129)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(63, 129)
    with pytest.raises(ConfigurationError):
        Grid(8, 129)
    with pytest.raises(ConfigurationError):
        Grid(64, 9)
    assert GRID.hx == pytest.approx(2 * np.pi / 64)
    assert GRID.hy == pytest.approx(1 / 128)


def test_tangential_derivative_pure_mode():
    f = np.cos(GRID.xs)
    assert np.max(np.abs(tangential_derivative(f) + np.sin(GRID.xs))) <= 1e-12


def test_tangential_fourth_derivative_symbolic_oracle():
    x = sp.symbols("x")
    expr = sp.cos(2 * x)
    oracle = sp.lambdify(x, sp.diff(expr, x, 4), "numpy")(GRID.xs)
    got = tangential_derivative(np.cos(2 * GRID.xs), 4)
    assert np.max(np.abs(got - oracle)) <= 1e-9


def test_tangential_derivative_of_constant():
    f = np.full(GRID.nx, 3.7)
    assert np.max(np.abs(tangential_derivative(f))) == 0.0


def test_tangential_resolution_error():
    with pytest.raises(ResolutionError):
        tangential_derivative(np.cos(GRID.xs), GRID.nx // 2)


@pytest.mark.parametrize("degree", [1, 5, 17, 30])
def test_spectral_exact_on_trig_polynomials(degree):
    rng = np.random.default_rng(degree)
    coefs = rng.standard_normal(degree + 1)
    sins = rng.standard_normal(degree + 1)
    x = GRID.xs
    f = sum(c * np.cos(k * x) + s * np.sin(k * x)
            for k, (c, s) in enumerate(zip(coefs, sins)))
    df = sum(-c * k * np.sin(k * x) + s * k * np.cos(k * x)
             for k, (c, s) in enumerate(zip(coefs, sins)))
    assert np.max(np.abs(tangential_derivative(f) - df)) <= 1e-11


def test_vertical_derivative_linear_and_quadratic_exact():
    y = GRID.ys
    fy = np.broadcast_to(y, (GRID.nx, GRID.ny)).copy()
    assert np.max(np.abs(vertical_derivative(fy, GRID.hy, 1) - 1.0)) <= 1e-12
    fy2 = np.broadcast_to(y * y, (GRID.nx, GRID.ny)).copy()
    assert np.max(np.abs(vertical_derivative(fy2, GRID.hy, 1) - 2.0 * y)) <= 1e-12
    assert np.max(np.abs(vertical_derivative(fy2, GRID.hy, 2) - 2.0)) <= 1e-10


def test_vertical_derivative_closed_form_oracle():
    # d/dy sin(pi y) at y = 1/2 is zero; second-order stencil error bound
    y = GRID.ys
    f = np.broadcast_to(np.sin(np.pi * y), (GRID.nx, GRID.ny)).copy()
    mid = GRID.ny // 2
    val = vertical_derivative(f, GRID.hy, 1)[0, mid]
    assert abs(val) <= np.pi**3 / 6 * GRID.hy**2


def test_vertical_convergence_order():
    errs = []
    for grid in (Grid(16, 65), Grid(16, 129)):
        y = grid.ys
        f = np.broadcast_to(np.exp(y) * np.cos(3 * y), (grid.nx, grid.ny)).copy()
        exact = np.exp(y) * (np.cos(3 * y) - 3 * np.sin(3 * y))
        err = np.max(np.abs(vertical_derivative(f, grid.hy, 1) - exact))
        errs.append(err)
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_edge_derivative_polynomial_exactness():
    y = GRID.ys
    f3 = np.broadcast_to(y**3, (GRID.nx, GRID.ny)).copy()
    assert np.max(np.abs(edge_derivative(f3, GRID.hy, 1))) <= 1e-10
    f4 = np.broadcast_to(y**4, (GRID.nx, GRID.ny)).copy()
    assert np.max(np.abs(edge_derivative(f4, GRID.hy, 2))) <= 1e-8
    assert edge_derivative(f3, GRID.hy, 1, top=True)[0] == pytest.approx(3.0)


def test_boundary_norm_constant():
    phi = np.full(GRID.nx, -2.5)
    for s in (0.0, 1.0, 2.5):
        assert boundary_norm(phi, s) == pytest.approx(2.5, abs=1e-13)


def test_boundary_norm_cosine_oracle():
    # quadrature oracle for the H^0 value under the (1/2pi) convention
    phi = np.cos(GRID.xs)
    dense = np.linspace(0, 2 * np.pi, 20001)
    oracle = np.sqrt(np.trapezoid(np.cos(dense) ** 2, dense) / (2 * np.pi))
    assert boundary_norm(phi, 0.0) == pytest.approx(oracle, abs=1e-6)
    # weight (1 + 1)^1 on the two unit modes doubles the square
    assert boundary_norm(phi, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_boundary_norm_parseval_property():
    rng = np.random.default_rng(7)
    phi = sum(rng.standard_normal() * np.cos(k * GRID.xs)
              + rng.standard_normal() * np.sin(k * GRID.xs) for k in range(9))
    direct = integrate_boundary(phi * phi, GRID) / (2 * np.pi)
    assert boundary_norm(phi, 0.0) ** 2 == pytest.approx(direct, abs=1e-10)


def test_boundary_norm_monotone_in_s():
    rng = np.random.default_rng(12)
    phi = sum(rng.standard_normal() * np.cos(k * GRID.xs) for k in range(6))
    values = [boundary_norm(phi, s) for s in (0.0, 0.5, 1.0, 1.5, 3.0)]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


def test_edge_squares_of_stacked_modes_match_boundary_norm():
    # three edge fields stacked on axis 1 go through one product; each
    # square is the field's own boundary_norm squared
    rng = np.random.default_rng(5)
    fields = rng.standard_normal((GRID.nx, 3))
    orders = (0.0, 1.5, 5.0)
    sq = edge_squares(np.fft.rfft(fields, axis=0), orders)
    assert sq.shape == (len(orders), 3)
    for i, s in enumerate(orders):
        for j in range(3):
            want = boundary_norm(fields[:, j], s) ** 2
            assert abs(sq[i, j] - want) <= 1e-13 * want


def test_interior_norm_examples():
    zero = np.zeros((GRID.nx, GRID.ny))
    assert interior_norm(zero, GRID, 3) == 0.0
    one = np.ones((GRID.nx, GRID.ny))
    for s in range(4):
        assert interior_norm(one, GRID, s) == pytest.approx(np.sqrt(2 * np.pi))
    # quadrature oracle at high resolution for |sin x|_{H^1}
    fine = Grid(256, 513)
    xf, _ = fine.mesh()
    f_fine = np.sin(xf) * np.ones((1, fine.ny))
    sq = (np.trapezoid(f_fine**2, dx=fine.hy, axis=1).sum() * fine.hx
          + np.trapezoid(np.cos(xf) ** 2 * np.ones((1, fine.ny)),
                         dx=fine.hy, axis=1).sum() * fine.hx)
    oracle = np.sqrt(sq)
    x, _ = GRID.mesh()
    f = np.sin(x) * np.ones((1, GRID.ny))
    assert interior_norm(f, GRID, 1) == pytest.approx(oracle, rel=1e-10)
    assert oracle == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)


def test_interior_norm_sums_one_set_of_mixed_squares():
    # every norm order is the sum of the mixed squares of one spectrum up to
    # that order, the lower orders a subset of the higher ones
    x, y = GRID.mesh()
    f = np.sin(2 * x) * np.exp(y) + y**3
    sq = mixed_squares(np.fft.rfft(f, axis=-2), GRID, 5)
    for s in (5, 0, 2, 3):
        want = np.sqrt(sum(v for (a, b), v in sq.items() if a + b <= s))
        assert interior_norm(f, GRID, s) == want


@pytest.mark.parametrize("shape", [(64, 129), (128, 257)])
def test_integrate_interior_matches_trapezoid(shape):
    grid = Grid(*shape)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.standard_normal(shape) + rng.uniform(-1.0, 1.0)
        ref = float(np.trapezoid(f, dx=grid.hy, axis=-1).sum() * grid.hx)
        # relative to the integral of |f|, the conditioning of any sum of f
        scale = float(np.trapezoid(np.abs(f), dx=grid.hy, axis=-1).sum() * grid.hx)
        assert abs(integrate_interior(f, grid) - ref) <= 1e-14 * scale


def _ladder_squares(f, grid, top):
    """The physical-space ladder: each x-derivative by its own inverse
    transform, each y-derivative of it by the stencils, each square by
    np.trapezoid in y and the rectangle rule in x."""
    sq = {}
    for a in range(top + 1):
        dy = [tangential_derivative(f, a) if a else f]
        for b in range(top + 1 - a):
            if b:
                dy.append(vertical_derivative(dy[b - 1], grid.hy, 1) if b % 2
                          else vertical_derivative(dy[b - 2], grid.hy, 2))
            sq[a, b] = float(np.trapezoid(dy[b] * dy[b], dx=grid.hy, axis=-1).sum()
                             * grid.hx)
    return sq


@st.composite
def _trig_poly_fields(draw):
    nx = draw(st.sampled_from((16, 32, 64)))
    grid = Grid(nx, draw(st.sampled_from((17, nx + 1, 2 * nx + 1))))
    x, y = grid.mesh()
    comps = draw(st.sampled_from((1, 2)))

    def poly():
        coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
        return sum(cf * y**p for p, cf in enumerate(coeffs))

    fields = []
    for _ in range(comps):
        # a Nyquist mode, (-1)^j in x, of amplitude at least 1/2 at y = 0
        lead = draw(st.floats(0.5, 1.0))
        f = np.cos(np.pi * np.arange(nx))[:, None] * (lead + y * poly())
        for _ in range(draw(st.integers(1, 3))):
            m = draw(st.integers(0, nx // 2))
            ph = draw(st.floats(0.0, 2.0 * np.pi))
            f = f + np.cos(m * x + ph) * poly()
        fields.append(f)
    return grid, fields[0] if comps == 1 else np.stack(fields)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_trig_poly_fields())
def test_mixed_squares_match_the_physical_ladder(case):
    grid, f = case
    coef = np.fft.rfft(f, axis=-2)
    got = mixed_squares(coef, grid, 5)
    ref = _ladder_squares(f, grid, 5)
    assert got.keys() == ref.keys()
    eps = np.finfo(float).eps
    for (a, b), val in got.items():
        # both sides round the x-transform at eps times the norm of the a-th
        # x-derivative field, and the b-th y-stencil amplifies that by about
        # hy^-b: a square whose exact value is near that floor (a high
        # y-derivative of a low-degree polynomial) agrees only to it
        floor = 64.0 * eps * grid.hy ** -b * np.sqrt(ref[a, b] * ref[a, 0])
        assert abs(val - ref[a, b]) <= 1e-12 * ref[a, b] + floor, (a, b)
    # the velocity families' y-order-0 call is the b = 0 column bitwise
    assert mixed_squares(coef, grid, 4, y_top=0) == {
        (a, 0): got[a, 0] for a in range(5)}


def test_interior_norm_convergence_order():
    def value(grid):
        x, y = grid.mesh()
        return interior_norm(np.sin(2 * x) * np.exp(y), grid, 2)

    coarse, mid, fine = value(Grid(32, 33)), value(Grid(32, 65)), value(Grid(32, 129))
    err_c, err_m = abs(coarse - fine), abs(mid - fine)
    # halving hy should cut the quadrature/stencil error by ~4 against the
    # much finer reference
    assert err_m <= err_c / 3.5


def test_time_derivative_polynomial_exactness():
    times = [0.1 * i for i in range(5)]
    const = [np.full(3, 2.0)] * 5
    assert np.max(np.abs(time_derivative(times, const, 1))) == 0.0
    quad = [np.full(3, t * t) for t in times]
    assert np.max(np.abs(time_derivative(times, quad, 2) - 2.0)) <= 1e-10
    assert np.max(np.abs(time_derivative(times, quad, 2, index=0) - 2.0)) <= 1e-10


def test_time_derivative_closed_form_oracle():
    dt = 1e-3
    times = [0.1 + k * dt for k in range(-2, 3)]
    vals = [np.array([np.sin(t)]) for t in times]
    got = time_derivative(times, vals, 1, index=2)
    assert abs(got[0] - np.cos(0.1)) <= 1e-6


def test_time_derivative_needs_history():
    with pytest.raises(NeedsMoreStepsError):
        time_derivative([0.0, 0.1], [np.zeros(2)] * 2, 1)


def test_spectral_multiplier_cached_read_only():
    from stefansim.numerics import _spectral_multiplier

    mult = _spectral_multiplier(GRID.nx, 3)
    assert _spectral_multiplier(GRID.nx, 3) is mult
    with pytest.raises(ValueError):
        mult[1] = 0.0
    k = np.fft.rfftfreq(GRID.nx, d=1.0 / GRID.nx)
    expected = (1j * k) ** 3
    expected[-1] = 0.0
    assert np.array_equal(mult, expected)
    # the derivative still multiplies a fresh copy of the modes in place
    f = np.sin(2 * GRID.xs) + 0.3 * np.cos(5 * GRID.xs)
    first = tangential_derivative(f, 3)
    assert np.array_equal(tangential_derivative(f, 3), first)
    with pytest.raises(ResolutionError):
        _spectral_multiplier(16, 7)


def test_x_derivatives_match_tangential_derivative():
    # a 2-D field and a 1-D edge field: every order from one inverse
    # transform of the modes, each against its own tangential_derivative
    rng = np.random.default_rng(3)
    orders = range(5)
    for f in (rng.standard_normal((GRID.nx, GRID.ny)),
              rng.standard_normal(GRID.nx)):
        ladder = x_derivatives(np.fft.rfft(f, axis=0), orders, GRID.nx)
        assert ladder.shape == (len(orders),) + f.shape
        assert np.max(np.abs(ladder[0] - f)) <= 1e-14
        for a in orders[1:]:
            ref = tangential_derivative(f, a)
            assert np.max(np.abs(ladder[a] - ref)) <= 1e-13 * np.max(np.abs(ref))
