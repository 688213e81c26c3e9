"""Initial data construction, compatibility checks, and the regularized datum.

The explicit data families live in a slab above the interface where the
temperature is the quadratic profile  alpha*y - alpha^2*y^2/2  (classical)
optionally augmented by  sigma*b(x)*y^3  (surface-tension family).  A C^2
polynomial cutoff in y blends the profile to zero well below the top wall
so the homogeneous Neumann condition there holds identically.

Compatibility residuals are evaluated on the interface row with one-sided
stencils of higher order than the bulk operators (exact on the cubic-in-y
families), so the analytic zeros of the explicit data survive discretely.
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
from .geometry import MetricBundle, harmonic_extend, mean_curvature, metric_bundle
from .mollifier import smooth_2d, smooth_double
from .elliptic import DIRICHLET, NEUMANN, EdgeCondition, solve_transformed_poisson
from .operators import transformed_laplacian_expanded


class DataConstructionError(NumericsError):
    """The requested data family cannot be built as specified."""


@dataclass(frozen=True)
class DataSpec:
    """Parameters of the explicit initial-data families.

    ``alpha`` is the interface heat-flux slope (the Taylor margin of the
    built datum), ``eps_slab`` the height of the exact-profile slab,
    ``blend_end`` where the cutoff reaches zero, ``b_*`` the smooth
    x-profile multiplying the sigma-term, ``h0_*`` the initial interface.
    """

    alpha: float = 1.0
    eps_slab: float = 0.25
    sigma: float = 0.0
    b_amplitude: float = 1.0
    b_mode: int = 1
    h0_amplitude: float = 0.0
    h0_mode: int = 1
    #: width of the cutoff transition; the cutoff is identically zero above
    #: eps_slab + blend_window, comfortably below the top wall.
    blend_window: float = 0.55

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if not 0.0 < self.eps_slab < 0.5:
            raise ConfigurationError("eps_slab must lie in (0, 0.5)")
        if self.sigma < 0:
            raise ConfigurationError("sigma must be >= 0")
        if self.eps_slab + self.blend_window >= 1.0:
            raise ConfigurationError("slab plus blend window must fit below the top")

    def b_profile(self, grid: Grid) -> np.ndarray:
        return self.b_amplitude * np.cos(self.b_mode * grid.xs)

    def h0_profile(self, grid: Grid) -> np.ndarray:
        return self.h0_amplitude * np.cos(self.h0_mode * grid.xs)


#: degree-11 polynomial step: 0 -> 1 on [0, 1] with five vanishing
#: derivatives at both ends, so blended data stay bounded in H^5
_STEP_COEFFS = (462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    acc = np.zeros_like(u)
    for c in reversed(_STEP_COEFFS):
        acc = acc * u + c
    return u**6 * acc


def blend_cutoff(spec: DataSpec, y: np.ndarray) -> np.ndarray:
    """C^2 cutoff: 1 on the slab, 0 from the blend end up to the top wall."""
    a = spec.eps_slab
    b = spec.eps_slab + spec.blend_window
    return 1.0 - _smoothstep((y - a) / (b - a))


def _blended_profile(spec: DataSpec, y: np.ndarray) -> np.ndarray:
    """Temperature profile whose vertical flux is the slab flux times the cutoff.

    Integrating the cutoff flux (rather than cutting the temperature
    itself) keeps the profile monotone up to a plateau, so the heat
    content above the slab, and with it the interface flux, decays slowly.
    The closed-form antiderivative makes every sample exact.
    """
    alpha = spec.alpha
    a = spec.eps_slab
    width = spec.blend_window
    b = a + width
    # flux in the blend region as a polynomial in u = (y - a)/width:
    # alpha (1 - alpha (a + width u)) * (1 - S(u)),  S the quintic step
    flux = np.polynomial.Polynomial([alpha * (1.0 - alpha * a), -(alpha**2) * width])
    step = np.polynomial.Polynomial([0.0] * 6 + list(_STEP_COEFFS))
    anti = (flux * (1.0 - step)).integ()
    q_a = alpha * a - 0.5 * alpha**2 * a * a

    out = np.empty_like(y)
    slab = y <= a
    out[slab] = alpha * y[slab] - 0.5 * alpha**2 * y[slab] ** 2
    mid = (y > a) & (y < b)
    u = (y[mid] - a) / width
    out[mid] = q_a + width * anti(u)
    out[y >= b] = q_a + width * anti(1.0)
    return out


def build_classical_data(grid: Grid, spec: DataSpec):
    """Classical datum (q0, h0): exact slab quadratic, flux-blended above.

    In the slab y <= eps_slab the temperature is exactly
    alpha*y - alpha^2 y^2/2, so the interface traces q0 = 0 and
    q0_yy + (q0_y)^2 = 0 hold analytically; the flux (and the profile's
    y-dependence altogether) vanishes identically above the blend window,
    so the top-wall Neumann trace is exact.  The blend is C^5, keeping
    fifth-order Sobolev norms of the datum grid-stable.
    """
    if spec.alpha * spec.eps_slab >= 1.0:
        raise DataConstructionError(
            "alpha * eps_slab >= 1 makes the flux change sign inside the slab"
        )
    profile = _blended_profile(spec, grid.ys)
    q0 = np.broadcast_to(profile, (grid.nx, grid.ny)).copy()
    h0 = spec.h0_profile(grid)
    return q0, h0


def build_sigma_data(grid: Grid, spec: DataSpec):
    """Surface-tension family (q0, h0): flat interface, sigma*b(x)*y^3 term.

    Reduces exactly to the classical datum when sigma = 0; the extra term
    vanishes to second order at the interface, so every trace entering the
    flat compatibility conditions is unchanged and the family's energy
    distance to the sigma = 0 member scales linearly in sigma.
    """
    base = DataSpec(alpha=spec.alpha, eps_slab=spec.eps_slab, sigma=0.0,
                    b_amplitude=spec.b_amplitude, b_mode=spec.b_mode,
                    h0_amplitude=0.0)
    q0, _ = build_classical_data(grid, base)
    y = grid.ys
    q0 = q0 + spec.sigma * spec.b_profile(grid)[:, None] * (y**3 * blend_cutoff(spec, y))[None, :]
    h0 = np.zeros(grid.nx)
    return q0, h0


def taylor_margin(grid: Grid, q: np.ndarray) -> float:
    """Minimum interface trace of the vertical temperature gradient.

    Positive margin is the stability (Taylor sign) condition.  Evaluated
    with the cubic-exact edge stencil so the explicit families report
    their analytic slope alpha to rounding.
    """
    return float(np.min(edge_derivative(q, grid.hy, 1)))


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
    tol_dirichlet: float = 1e-8
    tol_second: float = 1e-6
    tol_neumann: float = 1e-8

    @property
    def passed(self) -> bool:
        return (
            self.r_dirichlet <= self.tol_dirichlet
            and self.r_second <= self.tol_second
            and self.neumann_top <= self.tol_neumann
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

    Expanded (not divergence) form, q_xx + 2a q_xy + (a^2 + c^2) q_yy +
    (a_x + a a_y + c c_y) q_y, with direct high-order edge stencils for
    the vertical derivatives, so the flat-geometry value is exact on the
    cubic data families.
    """
    _, _, q2, q11, q12, q22 = _edge_traces(grid, q)
    a, c = bundle.a[:, 0], bundle.c[:, 0]
    drift = (tangential_derivative(a) + a * edge_derivative(bundle.a, grid.hy, 1)
             + c * edge_derivative(bundle.c, grid.hy, 1))
    return q11 + 2.0 * a * q12 + (a * a + c * c) * q22 + drift * q2


def _compat_rhs_sigma(grid: Grid, bundle: MetricBundle, q: np.ndarray) -> np.ndarray:
    """The curvature-coupling term on the right of the second condition.

    For a flat interface this reduces to the third mixed derivative
    q_{,211}; in general it collects the tangential derivatives of the
    interface heat flux and of the curvature against the inverse map.
    """
    q_e, q1, q2, _, _, _ = _edge_traces(grid, q)
    a, c = bundle.a[:, 0], bundle.c[:, 0]
    g = bundle.line_el
    n = bundle.normal
    # pulled-back gradient trace (q_x + a q_y, c q_y) against the normal
    flux = g * ((q1 + a * q2) * n[0] + c * q2 * n[1])
    curv = mean_curvature(bundle.height)
    dcurv = tangential_derivative(curv)
    dh = bundle.dheight
    term1 = -(g**-3) * tangential_derivative(flux, 2)
    term2 = -3.0 * q_e * g**-2 * tangential_derivative(flux) * dh
    term3 = -dcurv * (g * n[0] * c * q2)
    return term1 + term2 + term3


def build_regularized_datum(
    grid: Grid,
    q0: np.ndarray,
    h0: np.ndarray,
    width: float,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Regularized initial temperature via the split fourth-order solve.

    The bi-transformed-Laplacian of ``q0`` is mollified in 2-D and lifted
    back through two second-order solves on the smoothed-interface
    geometry: first for the intermediate field with the squared-flux
    interface trace, then for the datum itself with a zero interface trace
    and the homogeneous Neumann condition at the top wall.  As the width
    shrinks the output converges to ``q0``.
    """
    if not 0.0 < width <= 0.2:
        raise ConfigurationError("regularization width must lie in (0, 0.2]")
    bundle0 = metric_bundle(grid, harmonic_extend(grid, h0))
    h_smooth = smooth_double(h0, width)
    bundle_k = metric_bundle(grid, harmonic_extend(grid, h_smooth))

    lap_q0 = transformed_laplacian_expanded(grid, bundle0, q0)
    source = smooth_2d(transformed_laplacian_expanded(grid, bundle0, lap_q0), width, grid)

    q2 = edge_derivative(q0, grid.hy, 1)
    bottom_r = -(bundle0.line_el**2 / bundle0.jac_edge**2) * q2 * q2
    top_r = lap_q0[:, -1].copy()
    r_mid, _, _ = solve_transformed_poisson(
        grid, bundle_k, source, bottom_r, EdgeCondition(DIRICHLET), top_r,
        tol=tol, max_iter=max_iter,
    )
    q_reg, _, _ = solve_transformed_poisson(
        grid, bundle_k, r_mid, np.zeros(grid.nx), EdgeCondition(NEUMANN),
        tol=tol, max_iter=max_iter,
    )
    return q_reg


def compat_residuals(
    grid: Grid,
    q0: np.ndarray,
    h0: np.ndarray,
    sigma: float = 0.0,
    bundle: MetricBundle | None = None,
) -> CompatReport:
    """Evaluate the interface and top-wall compatibility residuals.

    Reports, never raises: the second-order condition is checked in the
    squared-flux form (the one the explicit data satisfy identically),
    with the unsquared variant recorded alongside.
    """
    if bundle is None:
        bundle = metric_bundle(grid, harmonic_extend(grid, h0))
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
