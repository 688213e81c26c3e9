"""Time advancement of the coupled temperature/interface system.

One step is an operator split: explicit interface update from the height
law, rebuild of the harmonic gauge map, backward-difference map velocity,
then a first-order IMEX heat update in which the flat Laplacian is
implicit per Fourier mode and the gauge-deviation part, the transport
term, and any forcing are explicit.  Three interface conditions are
supported: melting temperature pinned to zero (classical), pinned to
sigma times the interface curvature (surface tension), and a penalized
width^2-weighted Robin condition with consistency forcings (regularized
mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import (
    ConfigurationError,
    Grid,
    History,
    NumericsError,
    tangential_derivative,
    vertical_derivative,
)
from .geometry import (
    GRAPH_BOUND,
    MetricBundle,
    check_graph_condition,
    harmonic_extend,
    mean_curvature,
    metric_bundle,
)
from .mollifier import smooth_double
from .operators import (
    compute_velocity,
    gauge_deviation,
    gradient,
    transformed_laplacian_expanded,
)
from .elliptic import DIRICHLET, NEUMANN, ROBIN, EdgeCondition, StripSolver
from .initdata import (
    DataSpec,
    build_classical_data,
    build_regularized_datum,
    build_sigma_data,
    taylor_margin,
)

CLASSICAL = "classical"
SURFACE_TENSION = "surface_tension"
KAPPA = "kappa"
MODES = (CLASSICAL, SURFACE_TENSION, KAPPA)


class StepDivergedError(NumericsError):
    """The heat update produced non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for one simulation."""

    mode: str = CLASSICAL
    sigma: float = 0.0
    kappa: float = 0.0
    nx: int = 64
    ny: int = 129
    dt: float = 2.5e-5
    t_end: float = 0.05
    cfl_safety: float = 0.5
    snapshot_every: int = 40
    history_depth: int = 5
    elliptic_tol: float = 1e-10
    elliptic_max_iter: int = 200
    taylor_grace_steps: int = 10
    graph_bound: float = GRAPH_BOUND
    smallness: float = 0.3
    data: DataSpec = field(default_factory=DataSpec)
    #: manufactured-solution hooks; each maps t -> field / edge array
    source_q: object = None
    source_h: object = None
    track_dissipation: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.mode == SURFACE_TENSION and self.sigma <= 0:
            raise ConfigurationError("surface-tension mode requires sigma > 0")
        if self.mode == KAPPA and self.kappa <= 0:
            raise ConfigurationError("regularized mode requires kappa > 0")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigurationError("dt and t_end must be positive")
        if self.history_depth < 5:
            raise ConfigurationError("the snapshot ring needs depth >= 5")
        limit = self.cfl_safety * min(self.grid.hx, self.grid.hy) ** 2
        if self.dt > limit * (1 + 1e-12):
            raise ConfigurationError(
                f"dt={self.dt:.3e} exceeds the diffusive limit {limit:.3e}"
            )

    @property
    def grid(self) -> Grid:
        return Grid(self.nx, self.ny)

    @property
    def n_steps(self) -> int:
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigurationError("t_end must be an integer number of steps")
        return n


@dataclass
class SolverState:
    """Immutable-by-convention snapshot of the coupled system."""

    step: int
    t: float
    q: np.ndarray
    h: np.ndarray
    phi: np.ndarray
    bundle: MetricBundle
    v: np.ndarray
    w: np.ndarray
    margin: float
    alpha: np.ndarray | None = None
    beta_poly: tuple | None = None
    flags: tuple = ()
    dissipation: tuple | None = None
    history: History | None = None

    def snapshot(self) -> dict:
        return {"q": self.q, "h": self.h, "v": self.v, "w": self.w, "phi": self.phi}


def height_rate(bundle: MetricBundle, v: np.ndarray) -> np.ndarray:
    """Interface speed g * (v . n) from the edge traces of the bundle."""
    ve = v[:, :, 0]
    return bundle.line_el * (ve[0] * bundle.normal[0] + ve[1] * bundle.normal[1])


def beta_value(beta_poly, t: float) -> np.ndarray:
    c0, c1, c2 = beta_poly
    return c0 + c1 * t + 0.5 * c2 * t * t


def _effective_height(h: np.ndarray, config: SolverConfig) -> np.ndarray:
    if config.mode == KAPPA:
        return smooth_double(h, config.kappa)
    return h


_solver_cache: dict = {}


def _heat_solver(config: SolverConfig) -> StripSolver:
    key = (config.nx, config.ny, config.dt, config.mode, config.kappa)
    solver = _solver_cache.get(key)
    if solver is None:
        if config.mode == KAPPA:
            # penalized interface condition q - kappa^2 q_y = kappa^2 (beta + corr);
            # the sign is the one the weak form dictates (dissipative penalty)
            bottom = EdgeCondition(ROBIN, coef=-config.kappa**2)
        else:
            bottom = EdgeCondition(DIRICHLET)
        solver = StripSolver(config.grid, 1.0 / config.dt, bottom, EdgeCondition(NEUMANN))
        if len(_solver_cache) > 16:
            _solver_cache.clear()
        _solver_cache[key] = solver
    return solver


def _matched_edge_gradient(q: np.ndarray, hy: float) -> np.ndarray:
    """Interface q_y with the same one-sided stencil as the Robin matrix row.

    The lagged Robin correction must vanish identically on flat geometry,
    which requires this stencil, the matrix row, and the velocity trace to
    coincide; a higher-order trace here feeds a boundary-layer instability.
    """
    return (-3.0 * q[:, 0] + 4.0 * q[:, 1] - q[:, 2]) / (2.0 * hy)


def _bottom_condition(config: SolverConfig, state: SolverState,
                      bundle_new: MetricBundle, h_new: np.ndarray,
                      t_new: float) -> np.ndarray:
    if config.mode == CLASSICAL:
        return None
    if config.mode == SURFACE_TENSION:
        return config.sigma * mean_curvature(h_new)
    # Robin: q - kappa^2 q_y = kappa^2 (beta + corr) with the interface speed
    # split into the implicit flat flux and a lagged geometric correction.
    rate = height_rate(bundle_new, state.v)
    corr = rate - _matched_edge_gradient(state.q, config.grid.hy)
    return config.kappa**2 * (beta_value(state.beta_poly, t_new) + corr)


def advance(state: SolverState, config: SolverConfig) -> SolverState:
    """One operator-split step; returns the new state.

    Raises DegenerateMapError / InvalidGeometryError on geometry loss and
    StepDivergedError if the heat update produces non-finite values.  A
    nonpositive stability margin only flags the state.
    """
    grid = config.grid
    dt = config.dt
    t_new = state.t + dt

    rate = height_rate(state.bundle, state.v)
    if config.source_h is not None:
        rate = rate + config.source_h(state.t)
    h_new = state.h + dt * rate
    if config.mode == KAPPA:
        check_graph_condition(h_new, config.graph_bound)

    h_eff = _effective_height(h_new, config)
    phi_new = harmonic_extend(grid, h_eff, config.graph_bound)
    bundle_new = metric_bundle(grid, phi_new)
    w_new = (phi_new - state.phi) / dt

    rhs = state.q / dt
    deviation = gauge_deviation(grid, bundle_new, state.q)
    if deviation is not None:
        rhs = rhs + deviation
    # the map moves only vertically (w[0] = 0), so v . w = v1 w1
    rhs = rhs - state.v[1] * w_new[1]
    if state.alpha is not None:
        rhs = rhs + state.alpha
    if config.source_q is not None:
        rhs = rhs + config.source_q(t_new)

    bottom = _bottom_condition(config, state, bundle_new, h_new, t_new)
    solver = _heat_solver(config)
    q_new = solver.solve(rhs, bottom, None)
    if not np.all(np.isfinite(q_new)):
        raise StepDivergedError(f"non-finite temperature at t={t_new:.6g}")

    v_new = compute_velocity(grid, bundle_new, q_new)
    margin = taylor_margin(grid, q_new)
    flags = state.flags
    # strictly negative: the all-zero rest state sits exactly at zero and
    # is a legitimate (if degenerate) complete run
    if margin < 0.0 and "taylor" not in flags:
        flags = flags + ("taylor",)
    sup_h = float(np.max(np.abs(h_new)) + np.max(np.abs(bundle_new.dheight)))
    if sup_h > config.smallness and "smallness" not in flags:
        flags = flags + ("smallness",)

    dissip = None
    if config.track_dissipation and config.mode == CLASSICAL and config.source_q is None:
        dissip = _dissipation_defect(grid, state, q_new, v_new, bundle_new, dt)

    new_state = SolverState(
        step=state.step + 1,
        t=t_new,
        q=q_new,
        h=h_new,
        phi=phi_new,
        bundle=bundle_new,
        v=v_new,
        w=w_new,
        margin=margin,
        alpha=state.alpha,
        beta_poly=state.beta_poly,
        flags=flags,
        dissipation=dissip,
        history=state.history,
    )
    if state.history is not None:
        state.history.push(t_new, new_state.snapshot())
    return new_state


def _dissipation_defect(grid, state, q_new, v_new, bundle_new, dt):
    """Per-step defect of the energy dissipation law, normalized.

    The law on the fixed strip reads  d/dt [1/2 int q^2 J] = -int |v|^2 J;
    both sides are evaluated with the run's own quadrature and velocity,
    so the defect isolates splitting and motion errors.
    """
    from .numerics import integrate_interior

    a_old = 0.5 * integrate_interior(state.q**2 * state.bundle.jac, grid)
    a_new = 0.5 * integrate_interior(q_new**2 * bundle_new.jac, grid)
    b_new = integrate_interior(
        (v_new[0] ** 2 + v_new[1] ** 2) * bundle_new.jac, grid
    )
    defect = (a_new - a_old) / dt + b_new
    return (state.t + dt, defect / max(b_new, 1e-30))


def init_state(config: SolverConfig, q0: np.ndarray | None = None,
               h0: np.ndarray | None = None) -> SolverState:
    """Build the initial state: data, geometry, velocity, forcings, ring."""
    grid = config.grid
    spec = config.data
    if q0 is None or h0 is None:
        if config.mode == SURFACE_TENSION:
            q0, h0 = build_sigma_data(grid, replace(spec, sigma=config.sigma))
        elif config.mode == KAPPA:
            q0, h0 = build_classical_data(grid, spec)
            q0 = build_regularized_datum(
                grid, q0, h0, config.kappa,
                tol=config.elliptic_tol, max_iter=config.elliptic_max_iter,
            )
        else:
            q0, h0 = build_classical_data(grid, spec)
    check_graph_condition(h0, config.graph_bound)

    h_eff = _effective_height(h0, config)
    phi = harmonic_extend(grid, h_eff, config.graph_bound)
    bundle = metric_bundle(grid, phi)
    v = compute_velocity(grid, bundle, q0)

    rate = height_rate(bundle, v)
    if config.source_h is not None:
        rate = rate + config.source_h(0.0)
    w = harmonic_extend_rate(grid, rate, config)

    alpha = None
    beta_poly = None
    if config.mode == KAPPA:
        alpha = _alpha_forcing(grid, config, q0, h0, h_eff)
        beta_poly = _bootstrap_beta(config, q0, h0, alpha)

    history = History(depth=config.history_depth)
    state = SolverState(
        step=0, t=0.0, q=q0, h=h0, phi=phi, bundle=bundle, v=v, w=w,
        margin=taylor_margin(grid, q0), alpha=alpha, beta_poly=beta_poly,
        history=history,
    )
    history.push(0.0, state.snapshot())
    return state


def harmonic_extend_rate(grid: Grid, rate: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Map velocity at t = 0: the extension operator applied to the height rate."""
    rate_eff = smooth_double(rate, config.kappa) if config.mode == KAPPA else rate
    return _extend_edge_scalar(grid, rate_eff)


def _extend_edge_scalar(grid: Grid, data: np.ndarray) -> np.ndarray:
    """Harmonic extension of arbitrary edge data (no graph-condition gate)."""
    return harmonic_extend(grid, data, graph_bound=np.inf)


def _alpha_forcing(grid, config, q0, h0, h_eff):
    """Time-independent interior forcing restoring the flux compatibility.

    The difference of the squared-flux weights between the raw and the
    smoothed interface geometry; the weight a^2 + c^2 = (1 + phi_x^2)/J^2
    extends the edge metric g^2/J^2 into the strip.
    """
    bundle0 = metric_bundle(grid, harmonic_extend(grid, h0, config.graph_bound))
    bundle_k = metric_bundle(grid, harmonic_extend(grid, h_eff, config.graph_bound))
    q2 = vertical_derivative(q0, grid.hy, 1)

    def weight(b):
        return b.a**2 + b.c**2

    return (weight(bundle0) - weight(bundle_k)) * q2 * q2


def _kappa_rate_sample(config: SolverConfig, q: np.ndarray, h: np.ndarray,
                       alpha: np.ndarray | None):
    """Interface speed and its time derivative for data (q, h), kappa geometry.

    The speed comes from the smoothed-geometry velocity trace; its rate
    comes from the same equation substitution the initial-instant
    derivatives use, which is far more robust than double differencing.
    """
    grid = config.grid
    h_eff = smooth_double(h, config.kappa)
    phi = harmonic_extend(grid, h_eff, config.graph_bound)
    bundle = metric_bundle(grid, phi)
    v = compute_velocity(grid, bundle, q)
    rate = height_rate(bundle, v)
    w = _extend_edge_scalar(grid, smooth_double(rate, config.kappa))
    probe = SolverState(
        step=0, t=0.0, q=q, h=h, phi=phi, bundle=bundle, v=v, w=w,
        margin=0.0, alpha=alpha,
    )
    deriv = initial_time_derivatives(probe, config)
    return deriv["h_t"], deriv["h_tt"]


def _bootstrap_beta(config: SolverConfig, q0, h0, alpha):
    """Taylor coefficients of t -> g_k (v . n_k) at t = 0 by micro-stepping.

    Three classical (pinned-temperature) micro-steps at dt/100 provide the
    sample states; the speed's first derivative is evaluated at each by
    equation substitution, and one more one-sided difference of those
    yields the second coefficient.
    """
    micro_dt = config.dt / 100.0
    micro = replace(
        config, mode=CLASSICAL, sigma=0.0, kappa=0.0, dt=micro_dt,
        t_end=3 * micro_dt, source_q=None, source_h=None,
        track_dissipation=False,
    )
    state = init_state(micro, q0=q0.copy(), h0=h0.copy())
    f0, g0 = _kappa_rate_sample(config, state.q, state.h, alpha)
    state = advance(state, micro)
    _, g1 = _kappa_rate_sample(config, state.q, state.h, alpha)
    state = advance(state, micro)
    _, g2 = _kappa_rate_sample(config, state.q, state.h, alpha)
    c2 = (-3.0 * g0 + 4.0 * g1 - g2) / (2.0 * micro_dt)
    # beta expands -(interface speed): the boundary covector is the cofactor
    # row, whose contraction with v is minus the speed
    return (-f0, -g0, -c2)


def initial_time_derivatives(state: SolverState, config: SolverConfig) -> dict:
    """First and second time derivatives at t = 0 by equation substitution.

    The heat equation supplies q_t, the height law h_t; differentiating
    those relations (with the map-inverse evolution rule) supplies the
    second derivatives and the velocity rate.
    """
    grid = config.grid
    b = state.bundle
    q, v, w = state.q, state.v, state.w

    q_t = transformed_laplacian_expanded(grid, b, q) - v[1] * w[1]
    if state.alpha is not None:
        q_t = q_t + state.alpha
    if config.source_q is not None:
        q_t = q_t + config.source_q(0.0)

    h_t = height_rate(b, v)
    if config.source_h is not None:
        h_t = h_t + config.source_h(0.0)

    # rates of the inverse-gradient entries: the inverse M^-1 of the map
    # gradient moves as -M^-1 (grad w) M^-1, and w = (0, w1) keeps its
    # first row (1, 0) fixed
    a, c = b.a, b.c
    w1_x, w1_y = gradient(grid, w[1])
    a_t = -c * (w1_x + a * w1_y)
    c_t = -c * c * w1_y
    q_x, q_y = gradient(grid, q)
    qt_x, qt_y = gradient(grid, q_t)
    # pulled-back flux F = -v and its rate F_t = -v_t
    flux = np.stack((q_x + a * q_y, c * q_y))
    flux_t = np.stack((qt_x + a * qt_y + a_t * q_y, c * qt_y + c_t * q_y))
    v_t = -flux_t

    # interface speed rate: differentiate g (v . n) on the edge
    rate_eff = smooth_double(h_t, config.kappa) if config.mode == KAPPA else h_t
    dh_t = tangential_derivative(rate_eff)
    g, n = b.line_el, b.normal
    g_t = b.dheight * dh_t / g
    n_t = np.stack((dh_t, np.zeros_like(dh_t))) / g - n * (g_t / g)
    ve, vte = v[:, :, 0], v_t[:, :, 0]
    h_tt = (
        g_t * (ve[0] * n[0] + ve[1] * n[1])
        + g * (vte[0] * n[0] + vte[1] * n[1])
        + g * (ve[0] * n_t[0] + ve[1] * n_t[1])
    )

    w_t = _extend_edge_scalar(
        grid, smooth_double(h_tt, config.kappa) if config.mode == KAPPA else h_tt
    )

    # q_tt = d/dt [TransformedLaplacian(q)] - v_t . w - v . w_t
    dflux_y = vertical_derivative(flux, grid.hy, 1)
    dflux_t_y = vertical_derivative(flux_t, grid.hy, 1)
    lap_t = (a_t * dflux_y[0] + c_t * dflux_y[1]
             + tangential_derivative(flux_t[0]) + a * dflux_t_y[0]
             + c * dflux_t_y[1])
    q_tt = lap_t - v_t[1] * w[1] - v[1] * w_t[1]

    return {
        "q_t": q_t, "q_tt": q_tt, "h_t": h_t, "h_tt": h_tt,
        "v_t": v_t, "w_t": w_t,
    }


def weak_residual(state: SolverState, config: SolverConfig, n_test: int = 12) -> float:
    """Largest normalized defect of the penalized weak form over test functions.

    Tests the Jacobian-weighted heat balance with the width^-2 interface
    penalty against a tensor basis of trigonometric-in-x, polynomial-in-y
    functions; requires the regularized mode and at least three stored
    snapshots for the time derivative.
    """
    from .numerics import (
        NeedsMoreStepsError,
        history_derivative,
        integrate_boundary,
        integrate_interior,
    )

    if config.mode != KAPPA:
        raise ConfigurationError("weak residual is defined for the regularized mode")
    if state.history is None or len(state.history) < 3:
        raise NeedsMoreStepsError("weak residual needs at least 3 snapshots")
    grid = config.grid
    q_t = history_derivative(state.history, "q", 1)
    b = state.bundle
    q, v, w = state.q, state.v, state.w
    kappa2 = config.kappa**2
    if state.beta_poly is not None:
        beta = beta_value(state.beta_poly, state.t)
    else:
        beta = np.zeros(grid.nx)
    alpha = state.alpha if state.alpha is not None else 0.0

    flux = -compute_velocity(grid, b, q)
    worst = 0.0
    for phi, dphi in _test_functions(grid, n_test):
        lhs = integrate_interior(q_t * b.jac * phi, grid)
        lhs += integrate_interior(
            (flux[0] * (dphi[0] + b.a * dphi[1]) + flux[1] * b.c * dphi[1])
            * b.jac, grid)
        lhs += integrate_boundary(q[:, 0] * phi[:, 0], grid) / kappa2
        rhs = integrate_interior(-v[1] * w[1] * b.jac * phi, grid)
        rhs += integrate_interior(alpha * b.jac * phi, grid)
        rhs += integrate_boundary(beta * phi[:, 0], grid)
        defect = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, defect)
    return worst


def _test_functions(grid: Grid, n_test: int):
    """Tensor test functions and their gradients, sampled on the grid."""
    x, y = grid.mesh()
    trig = [np.ones_like(x), np.cos(x), np.sin(x), np.cos(2 * x), np.sin(2 * x),
            np.cos(3 * x), np.sin(3 * x)]
    dtrig = [np.zeros_like(x), -np.sin(x), np.cos(x), -2 * np.sin(2 * x),
             2 * np.cos(2 * x), -3 * np.sin(3 * x), 3 * np.cos(3 * x)]
    out = []
    for p in range(4):
        for m in range(len(trig)):
            pol = y**p if p else np.ones_like(y)
            dpol = p * y ** (p - 1) if p else np.zeros_like(y)
            phi = trig[m] * pol
            dphi = np.stack((
                np.broadcast_to(dtrig[m] * pol, (grid.nx, grid.ny)),
                np.broadcast_to(trig[m] * dpol, (grid.nx, grid.ny)),
            ))
            out.append((np.broadcast_to(phi, (grid.nx, grid.ny)), dphi))
            if len(out) >= n_test:
                return out
    return out
