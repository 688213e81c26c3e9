"""Initial data construction, compatibility checks, and the regularized datum.

The explicit datum lives in a slab above the interface where the
temperature is the quadratic profile  alpha*y - alpha^2*y^2/2  (the
classical datum, sigma = 0) augmented by  sigma*cos(x)*y^3.  A C^2
polynomial cutoff in y blends the profile to zero well below the top wall
so the homogeneous Neumann condition there holds identically.

Compatibility residuals are evaluated on the interface row with one-sided
stencils of higher order than the bulk operators (exact on the cubic-in-y
data), so the analytic zeros of the explicit datum survive discretely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    ConfigurationError,
    Grid,
    NumericsError,
    edge_derivative,
    tangential_derivative,
)
from .geometry import MetricBundle, mean_curvature, metric_bundle
from .mollifier import smooth_2d, smooth_double
from .elliptic import DIRICHLET, NEUMANN, solve_transformed_poisson
from .operators import deviation_from_derivatives, transformed_laplacian_expanded


class DataConstructionError(NumericsError):
    """The requested data family cannot be built as specified."""


@dataclass(frozen=True)
class DataSpec:
    """Parameters of the explicit initial datum.

    ``alpha`` is the interface heat-flux slope (the Taylor margin of the
    built datum), ``h0_*`` the initial interface h0 = A cos(m x).
    """

    alpha: float = 1.0
    h0_amplitude: float = 0.0
    h0_mode: int = 1

    def __post_init__(self):
        # chained comparisons are False on NaN, so NaN fails them too
        if not 0.0 < self.alpha < np.inf:
            raise ConfigurationError("alpha must be positive and finite")
        if not -np.inf < self.h0_amplitude < np.inf:
            raise ConfigurationError("h0_amplitude must be finite")

    def h0_profile(self, grid: Grid) -> np.ndarray:
        # + 0.0 makes the -0.0 of a zero amplitude +0.0; all else is unchanged
        return self.h0_amplitude * np.cos(self.h0_mode * grid.xs) + 0.0


#: height of the slab in which the datum is the exact quadratic profile
EPS_SLAB = 0.25
#: width of the cutoff transition; the cutoff is identically zero above
#: EPS_SLAB + BLEND_WINDOW, comfortably below the top wall
BLEND_WINDOW = 0.55
#: degree-11 polynomial step: 0 -> 1 on [0, 1] with five vanishing
#: derivatives at both ends, so blended data stay bounded in H^5
_STEP_COEFFS = (462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    acc = np.zeros_like(u)
    for c in reversed(_STEP_COEFFS):
        acc = acc * u + c
    return u**6 * acc


def blend_cutoff(y: np.ndarray) -> np.ndarray:
    """C^2 cutoff: 1 on the slab, 0 from the blend end up to the top wall."""
    a = EPS_SLAB
    b = EPS_SLAB + BLEND_WINDOW
    return 1.0 - _smoothstep((y - a) / (b - a))


def _blended_profile(alpha: float, y: np.ndarray) -> np.ndarray:
    """Temperature profile whose vertical flux is the slab flux times the cutoff.

    Integrating the cutoff flux (rather than cutting the temperature
    itself) keeps the profile monotone up to a plateau, so the heat
    content above the slab, and with it the interface flux, decays slowly.
    The closed-form antiderivative makes every sample exact.
    """
    a = EPS_SLAB
    width = BLEND_WINDOW
    b = a + width
    # flux in the blend region as a polynomial in u = (y - a)/width,
    # coefficients in increasing order:
    # alpha (1 - alpha (a + width u)) * (1 - S(u)),  S the quintic step
    flux = np.convolve([alpha * (1.0 - alpha * a), -(alpha**2) * width],
                       np.r_[1.0, np.zeros(5), np.negative(_STEP_COEFFS)])
    anti = np.r_[0.0, flux / np.arange(1, flux.size + 1)]
    q_a = alpha * a - 0.5 * alpha**2 * a * a

    out = np.empty_like(y)
    slab = y <= a
    out[slab] = alpha * y[slab] - 0.5 * alpha**2 * y[slab] ** 2
    mid = (y > a) & (y < b)
    # the antiderivative by Horner at the blend samples and, last, at u = 1
    u = np.append((y[mid] - a) / width, 1.0)
    acc = anti[-1]
    for c in anti[-2::-1]:
        acc = c + acc * u
    out[mid] = q_a + width * acc[:-1]
    out[y >= b] = q_a + width * acc[-1]
    return out


def build_sigma_data(grid: Grid, spec: DataSpec, sigma: float):
    """The explicit datum (q0, h0): the classical datum plus sigma*cos(x)*y^3.

    The classical datum (sigma = 0) is the exact slab quadratic
    alpha*y - alpha^2 y^2/2 for y <= EPS_SLAB, so the interface traces
    q0 = 0 and q0_yy + (q0_y)^2 = 0 hold analytically; above the slab its
    flux is blended to zero, so the profile does not depend on y above the
    blend window and the top-wall Neumann trace is exact.  The blend is
    C^5, keeping fifth-order Sobolev norms of the datum grid-stable.  At
    sigma = 0 the extra term adds zeros, so the classical datum comes out
    bit for bit and every interface law starts from this one family.  The
    term vanishes to second order at the interface, so every trace
    entering the flat compatibility conditions is unchanged and the
    family's energy distance to the sigma = 0 member scales linearly in
    sigma.
    """
    if sigma < 0:
        raise ConfigurationError("sigma must be >= 0")
    if spec.alpha * EPS_SLAB >= 1.0:
        raise DataConstructionError(
            "alpha * EPS_SLAB >= 1 makes the flux change sign inside the slab"
        )
    y = grid.ys
    q0 = np.broadcast_to(_blended_profile(spec.alpha, y), (grid.nx, grid.ny)).copy()
    q0 += sigma * np.cos(grid.xs)[:, None] * (y**3 * blend_cutoff(y))[None, :]
    return q0, spec.h0_profile(grid)


def taylor_margin(grid: Grid, q: np.ndarray) -> float:
    """Minimum interface trace of the vertical temperature gradient.

    Positive margin is the stability (Taylor sign) condition.  Evaluated
    with the cubic-exact edge stencil so the explicit families report
    their analytic slope alpha to rounding.
    """
    return float(np.min(edge_derivative(q, grid.hy, 1)))


#: bounds of ``CompatReport.passed`` on the interface Dirichlet residual,
#: the second-order condition and the top-wall Neumann residual
TOL_DIRICHLET = 1e-8
TOL_SECOND = 1e-6
TOL_NEUMANN = 1e-8


@dataclass(frozen=True)
class CompatReport:
    """Interface/top-wall residuals of the initial data.

    ``r_dirichlet``: sup |q0 - sigma*curvature| on the interface.
    ``r_second``: sup of the second-order condition with the squared flux
    (the form the explicit data satisfy); ``r_second_linear`` is the
    variant with the unsquared flux, reported for visibility.
    ``neumann_top``: sup |q0_y| on the top wall.
    """

    r_dirichlet: float
    r_second: float
    r_second_linear: float
    taylor_margin: float
    neumann_top: float

    @property
    def passed(self) -> bool:
        return (
            self.r_dirichlet <= TOL_DIRICHLET
            and self.r_second <= TOL_SECOND
            and self.neumann_top <= TOL_NEUMANN
            and self.taylor_margin > 0.0
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] dirichlet={self.r_dirichlet:.3e} "
            f"second={self.r_second:.3e} (linear={self.r_second_linear:.3e}) "
            f"margin={self.taylor_margin:.6f} neumann_top={self.neumann_top:.3e}"
        )


def _edge_traces(grid: Grid, q: np.ndarray):
    """Interface traces q, q_x, q_y, q_xx, q_xy, q_yy of a field.

    y-derivatives use the high-order edge stencils; x-derivatives are
    spectral on the edge rows.
    """
    hy = grid.hy
    q_e = q[:, 0]
    q2 = edge_derivative(q, hy, 1)
    return (q_e, tangential_derivative(q_e), q2,
            tangential_derivative(q_e, 2), tangential_derivative(q2),
            edge_derivative(q, hy, 2))


def transformed_laplacian_edge(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """Interface trace of the gauge-transformed Laplacian.

    Expanded (not divergence) form, q_xx + q_yy plus the gauge deviation
    (``operators.deviation_from_derivatives``) of the edge traces, with direct
    high-order edge stencils for the vertical derivatives, so the
    flat-geometry value is exact on the cubic data families.
    """
    _, _, q2, q11, q12, q22 = _edge_traces(grid, q)
    a, c = bundle.a[:, 0], bundle.c[:, 0]
    drift = (tangential_derivative(a) + a * edge_derivative(bundle.a, grid.hy, 1)
             + c * edge_derivative(bundle.c, grid.hy, 1))
    return q11 + q22 + deviation_from_derivatives(a, c, drift, q2, q22, q12)


def _compat_rhs_sigma(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """The curvature-coupling term on the right of the second condition.

    For a flat interface this reduces to the third mixed derivative
    q_{,211}; in general it collects the tangential derivatives of the
    interface heat flux and of the curvature against the inverse map.
    """
    q_e, q1, q2, _, _, _ = _edge_traces(grid, q)
    a, c = bundle.a[:, 0], bundle.c[:, 0]
    g, dh = bundle.line_el, bundle.dheight
    # pulled-back gradient trace (q_x + a q_y, c q_y) against the scaled
    # normal (h', -1)
    flux = (q1 + a * q2) * dh - c * q2
    curv = mean_curvature(bundle.height)
    dcurv = tangential_derivative(curv)
    term1 = -(g**-3) * tangential_derivative(flux, 2)
    term2 = -3.0 * q_e * g**-2 * tangential_derivative(flux) * dh
    term3 = -dcurv * (dh * c * q2)
    return term1 + term2 + term3


def build_regularized_datum(
    grid: Grid,
    q0: np.ndarray,
    h0: np.ndarray,
    width: float,
):
    """Regularized initial temperature via the split fourth-order solve.

    The bi-transformed-Laplacian of ``q0`` is mollified in 2-D and lifted
    back through two second-order solves on the smoothed-interface
    geometry: first for the intermediate field with the squared-flux
    interface trace, then for the datum itself with a zero interface trace
    and the homogeneous Neumann condition at the top wall.  On a flat
    interface the output converges to ``q0`` as the width shrinks: at
    16x129, max|q - q0| is 1.24e-3, 1.17e-4 and 9.9e-6 at widths 0.1, 0.03
    and 0.01.  On a curved one it does not: at h0 amplitude 0.05 the same
    distance stays at 1.10e-3 from width 0.03 down to 0.001.  Returns the
    datum and, per solve, its fixed-point iterations and final residual as
    ``{"iterations": n, "residual": r}``.
    """
    if not 0.0 < width <= 0.2:
        raise ConfigurationError("regularization width must lie in (0, 0.2]")
    bundle0 = metric_bundle(grid, h0)
    h_smooth = smooth_double(h0, width)
    bundle_k = metric_bundle(grid, h_smooth)

    lap_q0 = transformed_laplacian_expanded(grid, bundle0, q0)
    source = smooth_2d(transformed_laplacian_expanded(grid, bundle0, lap_q0), width, grid)

    q2 = edge_derivative(q0, grid.hy, 1)
    bottom_r = -(bundle0.line_el**2 / bundle0.jac_edge**2) * q2 * q2
    top_r = lap_q0[:, -1].copy()
    r_mid, resid_mid, iters_mid = solve_transformed_poisson(
        grid, bundle_k, source, bottom_r, DIRICHLET, top_r,
    )
    q_reg, resid, iters = solve_transformed_poisson(
        grid, bundle_k, r_mid, np.zeros(grid.nx), NEUMANN,
    )
    solves = [{"iterations": int(n), "residual": float(r)}
              for n, r in ((iters_mid, resid_mid), (iters, resid))]
    return q_reg, solves


def compat_residuals(
    grid: Grid,
    q0: np.ndarray,
    h0: np.ndarray,
    sigma: float = 0.0,
) -> CompatReport:
    """Evaluate the interface and top-wall compatibility residuals.

    Reports, never raises: the second-order condition is checked in the
    squared-flux form (the one the explicit data satisfy identically),
    with the unsquared variant recorded alongside.
    """
    bundle = metric_bundle(grid, h0)
    curv = mean_curvature(h0)
    r_dir = float(np.max(np.abs(q0[:, 0] - sigma * curv)))

    lap = transformed_laplacian_edge(grid, bundle, q0)
    q2 = edge_derivative(q0, grid.hy, 1)
    wgt = bundle.line_el**2 / bundle.jac_edge**2
    resid_sq = lap + wgt * q2 * q2
    resid_lin = lap + wgt * q2
    if sigma > 0.0:
        rhs = sigma * _compat_rhs_sigma(grid, bundle, q0)
        resid_sq = resid_sq - rhs
        resid_lin = resid_lin - rhs
    top = float(np.max(np.abs(edge_derivative(q0, grid.hy, 1, top=True))))
    return CompatReport(
        r_dirichlet=r_dir,
        r_second=float(np.max(np.abs(resid_sq))),
        r_second_linear=float(np.max(np.abs(resid_lin))),
        taylor_margin=taylor_margin(grid, q0),
        neumann_top=top,
    )
