"""Time advancement of the coupled temperature/interface system.

One step is an operator split: explicit interface update from the height
law, rebuild of the harmonic gauge map and of its velocity, the extension
of the interface speed, then a first-order IMEX heat update in which the
flat Laplacian is implicit per Fourier mode and the gauge-deviation part,
the transport term, and any forcing are explicit.  sigma and kappa select the
interface law (``SolverConfig.mode``): melting temperature pinned to zero
(classical, sigma = kappa = 0), pinned to sigma times the interface
curvature (surface tension, sigma > 0), or a penalized width^2-weighted
Robin condition with consistency forcings (regularized, kappa > 0).  A
step computes no diagnostic: the run loop in ``harness`` takes each
state's stability margin, raises the run's flags and applies the monitors
of ``analysis`` to consecutive states.

Data flow of one step, with the transforms it makes (x is spectral, y is
finite-difference, and the two commute up to rounding):

1. h_new from the old interface speed.  ``metric_bundle`` forms the
   extension's modes of h_new and of the speed and inverts them in one
   transform: phi_x (in row 0 the edge slope h' for the graph gate and
   the edge fields), J - 1 from the modes' y-derivative table, and the map
   velocity w; phi itself is never formed.  The drift a_x + a a_y + c c_y
   takes a forward/inverse pair for a_x and one y-derivative of (a, c).
2. The explicit right side: the old q over dt, the gauge deviation of the
   new map applied to the old q, the transport term and any forcing.  The
   deviation reads the q_y and q_xy the previous step left in the state;
   only q_yy is differentiated here.
3. One forward transform of the right side, the per-mode strip solve
   (``StripSolver.solve_to_modes``), and one inverse transform of
   [q_hat, ik q_hat] for q and q_x.  One y-derivative of that pair gives
   [q_y, q_xy]; q_x and q_y make the velocity, and q_y, q_xy go into the
   new state for the next step.

That is five two-dimensional FFT calls and three y-derivative calls per
step, in every mode.  The new state keeps q, v, q_y, q_xy, the map's J and
three edge rows (``SolverState``); the new map's a, c, drift and w, the
right side, q_yy and the solved modes die with the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .numerics import (
    ConfigurationError,
    Grid,
    NumericsError,
    tangential_derivative,
    time_derivative,
    vertical_derivative,
    wall_slope,
    x_derivatives,
)
from .geometry import (
    MetricBundle,
    check_graph_condition,
    extend_edge,
    map_drift,
    mean_curvature,
    metric_bundle,
)
from .mollifier import smooth_double
from .operators import (
    compute_velocity,
    deviation_from_derivatives,
    gradient,
    transformed_laplacian_expanded,
    velocity_from_derivatives,
)
from .elliptic import NEUMANN, StripSolver
from .initdata import DataSpec, build_regularized_datum, build_sigma_data

CLASSICAL = "classical"
SURFACE_TENSION = "surface_tension"
KAPPA = "kappa"

#: dt may be at most this multiple of min(hx, hy)^2
CFL_SAFETY = 0.5
#: micro step of the kappa-mode beta bootstrap, independent of the run's dt
BOOTSTRAP_DT = 2.5e-7


class StepDivergedError(NumericsError):
    """The heat update produced non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for one simulation; sigma and kappa select the law."""

    sigma: float = 0.0
    kappa: float = 0.0
    nx: int = 64
    ny: int = 129
    dt: float = 2.5e-5
    t_end: float = 0.05
    snapshot_every: int = 40
    data: DataSpec = field(default_factory=DataSpec)
    #: manufactured-solution hooks; each maps t -> field / edge array
    source_q: object = None
    source_h: object = None

    def __post_init__(self):
        # chained comparisons are False on NaN, so NaN fails them too
        if not (0 <= self.sigma < np.inf and 0 <= self.kappa < np.inf):
            raise ConfigurationError("sigma and kappa must be >= 0 and finite")
        if self.sigma > 0 and self.kappa > 0:
            raise ConfigurationError("sigma and kappa cannot both be positive")
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ConfigurationError("dt and t_end must be positive and finite")
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        limit = CFL_SAFETY * min(self.grid.hx, self.grid.hy) ** 2
        if self.dt > limit * (1 + 1e-12):
            raise ConfigurationError(
                f"dt={self.dt:.3e} exceeds the diffusive limit {limit:.3e}"
            )
        # on nx nodes cos(m x) aliases for |m| > nx / 2; the Nyquist slope is 0
        if abs(self.data.h0_mode) >= self.nx // 2:
            raise ConfigurationError(
                f"data.h0_mode must be below nx // 2 = {self.nx // 2}")

    @property
    def mode(self) -> str:
        """The interface law: kappa if kappa > 0, surface tension if sigma > 0."""
        if self.kappa > 0:
            return KAPPA
        if self.sigma > 0:
            return SURFACE_TENSION
        return CLASSICAL

    @cached_property
    def grid(self) -> Grid:
        # built once per config; replace() makes a new config with its own
        return Grid(self.nx, self.ny)

    @cached_property
    def heat_solver(self) -> StripSolver:
        """The factored implicit heat solve, built once per config.

        The interface row is  q - kappa^2 q_y = data  under every law: the
        kappa law's penalty (the dissipative sign the weak form dictates),
        and at kappa = 0 the Dirichlet row.
        """
        return StripSolver(self.grid, 1.0 / self.dt, (1.0, -self.kappa**2), NEUMANN)

    @property
    def n_steps(self) -> int:
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigurationError("t_end must be an integer number of steps")
        return n


@dataclass
class SolverState:
    """Immutable-by-convention state of the coupled system.

    A state keeps what its readers read: ``q_y`` and ``q_xy``, which the
    next step's gauge deviation reads; of the map, the Jacobian ``jac`` (the
    heat content) and the edge rows ``height``, the (smoothed) height the
    step extended, and ``dheight``, h' (the height law); of the map
    velocity, its edge row ``w_edge``, the (smoothed) interface speed.  a,
    c, the drift and w live only inside the step that builds them:
    ``metric_bundle(grid, height)`` rebuilds the step's J and (a, c) and
    ``extend_edge(grid, w_edge)`` its w, each bit for bit.  A kappa run
    built from its config's data keeps the iterations and residual of each
    solve of its regularized datum in ``datum_solves``.
    """

    t: float
    grid: Grid
    q: np.ndarray
    h: np.ndarray
    v: np.ndarray
    q_y: np.ndarray
    q_xy: np.ndarray
    jac: np.ndarray
    height: np.ndarray
    dheight: np.ndarray
    w_edge: np.ndarray
    alpha: np.ndarray | None = None
    beta_poly: tuple | None = None
    datum_solves: tuple = ()

    def snapshot(self) -> Snapshot:
        """The state as a trajectory keeps it (see ``Snapshot``)."""
        return Snapshot(self.grid, self.q, self.h, self.height, self.w_edge)


@dataclass(frozen=True, eq=False, repr=False)
class Snapshot:
    """A stored state: q and h whole, the map and the velocity derived.

    The map offset phi is the harmonic extension of ``phi_edge``, the
    (smoothed) height the step extended, and the map velocity w that of
    its edge row ``w_edge``: ``metric_bundle(grid, phi_edge)`` rebuilds
    the step's J and (a, c) and ``extend_edge(grid, w_edge)`` its w, each
    bit for bit.  The velocity -(q_x + a q_y, c q_y) depends on q and the map
    alone, so ``velocity()`` derives it on every call and nothing is
    cached: it equals the step's v up to rounding (bit for bit at t = 0).
    """

    grid: Grid
    q: np.ndarray
    h: np.ndarray
    phi_edge: np.ndarray
    w_edge: np.ndarray

    def velocity(self, bundle: MetricBundle | None = None) -> np.ndarray:
        """v on ``bundle``, the snapshot's map, rebuilt when not given."""
        if bundle is None:
            bundle = metric_bundle(self.grid, self.phi_edge)
        return compute_velocity(self.grid, bundle, self.q)

    def __getitem__(self, key: str) -> np.ndarray:
        """A field by name, ``"v"`` the velocity: the key reads that
        ``perfbench/child.py`` ``_final_fields`` still makes."""
        if key == "v":
            return self.velocity()
        if key not in ("q", "h", "phi_edge", "w_edge"):
            raise KeyError(key)
        return getattr(self, key)


def height_rate(bundle, v: np.ndarray) -> np.ndarray:
    """Interface speed g (v . n) = v0 h' - v1, since g n = (h', -1).

    ``bundle`` is anything that carries the edge slope ``dheight``: a
    ``MetricBundle`` or a ``SolverState``.
    """
    return v[0, :, 0] * bundle.dheight - v[1, :, 0]


def _interface_speed(config: SolverConfig, bundle, v: np.ndarray,
                     t: float) -> np.ndarray:
    """h_t at time t: ``height_rate`` plus any manufactured height source."""
    rate = height_rate(bundle, v)
    if config.source_h is not None:
        rate = rate + config.source_h(t)
    return rate


def beta_value(beta_poly, t: float) -> np.ndarray:
    c0, c1, c2 = beta_poly
    return c0 + c1 * t + 0.5 * c2 * t * t


def _smoothed(edge: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Edge data (height or a rate of it) as the gauge map sees them."""
    if config.mode == KAPPA:
        return smooth_double(edge, config.kappa)
    return edge


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
    corr = rate - wall_slope(state.q, config.grid.hy)
    return config.kappa**2 * (beta_value(state.beta_poly, t_new) + corr)


def advance(state: SolverState, config: SolverConfig) -> SolverState:
    """One operator-split step; returns the new state.

    Raises DegenerateMapError / InvalidGeometryError on geometry loss and
    StepDivergedError if the heat update produces non-finite values.  The
    new map's bundle, its drift and the right side are local, and the new
    state keeps only the fields ``SolverState`` lists.  q_yy and the drift
    are dropped once the deviation is formed.  The right side and the
    solved modes live to the end: freed earlier, they let the allocator
    trim and regrow the heap top within the step, which raised the page
    faults per step.
    """
    grid = config.grid
    dt = config.dt
    t_new = state.t + dt

    rate = _interface_speed(config, state, state.v, state.t)
    h_new = state.h + dt * rate
    if config.mode == KAPPA:
        check_graph_condition(h_new)

    # the map velocity extends the (smoothed) speed, as at t = 0
    w_edge = _smoothed(rate, config)
    bundle_new = metric_bundle(grid, _smoothed(h_new, config), w_edge)

    rhs = state.q / dt
    if not bundle_new.is_flat:
        # gauge deviation of the new map on the old q (zero on flat maps)
        q_yy = vertical_derivative(state.q, grid.hy, 2)
        drift = map_drift(grid, bundle_new.ac)
        rhs += deviation_from_derivatives(
            bundle_new.a, bundle_new.c, drift, state.q_y, q_yy, state.q_xy)
        del q_yy, drift
    rhs -= state.v[1] * bundle_new.w
    if state.alpha is not None:
        rhs += state.alpha
    if config.source_q is not None:
        rhs += config.source_q(t_new)

    bottom = _bottom_condition(config, state, bundle_new, h_new, t_new)
    modes = config.heat_solver.solve_to_modes(rhs, bottom, None)
    fields = x_derivatives(modes, (0, 1), grid.nx)
    if not np.all(np.isfinite(fields[0])):
        raise StepDivergedError(f"non-finite temperature at t={t_new:.6g}")
    # a copy, so that a snapshot of q does not keep q_x alive
    q_new = fields[0].copy()
    q_y, q_xy = vertical_derivative(fields, grid.hy, 1)
    v_new = velocity_from_derivatives(bundle_new.a, bundle_new.c, fields[1], q_y)

    return SolverState(
        t=t_new,
        grid=grid,
        q=q_new,
        h=h_new,
        v=v_new,
        q_y=q_y,
        q_xy=q_xy,
        jac=bundle_new.jac,
        height=bundle_new.height,
        dheight=bundle_new.dheight,
        w_edge=w_edge,
        alpha=state.alpha,
        beta_poly=state.beta_poly,
        datum_solves=state.datum_solves,
    )


def init_state(config: SolverConfig, q0: np.ndarray | None = None,
               h0: np.ndarray | None = None) -> SolverState:
    """Build the initial state: data, geometry, velocity, forcings."""
    grid = config.grid
    solves = ()
    if q0 is None or h0 is None:
        q0, h0 = build_sigma_data(grid, config.data, config.sigma)
        if config.mode == KAPPA:
            q0, solves = build_regularized_datum(grid, q0, h0, config.kappa)
    check_graph_condition(h0)
    bundle, q_y, v, _, w_edge = _instant(config, q0, h0)
    alpha = beta_poly = None
    if config.mode == KAPPA:
        alpha = _alpha_forcing(grid, q0, h0, bundle)
        beta_poly = _bootstrap_beta(config, q0, h0, alpha)
    return SolverState(t=0.0, grid=grid, q=q0, h=h0, v=v, q_y=q_y,
                       q_xy=tangential_derivative(q_y), jac=bundle.jac,
                       height=bundle.height, dheight=bundle.dheight,
                       w_edge=w_edge, alpha=alpha, beta_poly=beta_poly,
                       datum_solves=tuple(solves))


def _instant(config: SolverConfig, q: np.ndarray, h: np.ndarray):
    """Data (q, h) at t = 0: the map of the (smoothed) height, q_y, the
    velocity, the interface speed h_t and, extending the (smoothed) speed,
    the map velocity's edge row."""
    grid = config.grid
    bundle = metric_bundle(grid, _smoothed(h, config))
    q_x, q_y = gradient(grid, q)
    v = velocity_from_derivatives(bundle.a, bundle.c, q_x, q_y)
    h_t = _interface_speed(config, bundle, v, 0.0)
    return bundle, q_y, v, h_t, _smoothed(h_t, config)


def _alpha_forcing(grid, q0, h0, bundle_k):
    """Time-independent interior forcing restoring the flux compatibility.

    The difference of the squared-flux weights between the raw and the
    smoothed (``bundle_k``) interface geometry; the weight
    a^2 + c^2 = (1 + phi_x^2)/J^2 extends the edge metric g^2/J^2 into the
    strip.
    """
    bundle0 = metric_bundle(grid, h0)
    q2 = vertical_derivative(q0, grid.hy, 1)
    return ((bundle0.a**2 + bundle0.c**2) - (bundle_k.a**2 + bundle_k.c**2)) * q2 * q2


def _bootstrap_beta(config: SolverConfig, q0, h0, alpha):
    """Taylor coefficients of t -> g_k (v . n_k) at t = 0 by micro-stepping.

    Two classical (pinned-temperature) micro-steps of ``BOOTSTRAP_DT``,
    capped at the grid's diffusive limit, provide three sample states, so
    beta does not depend on the run's dt.  At each, the equation
    substitution of the initial instant on kappa geometry (far more robust
    than double differencing) gives the speed and its first derivative, and
    one more one-sided difference of those yields the second coefficient.
    """
    grid = config.grid
    micro_dt = min(BOOTSTRAP_DT, CFL_SAFETY * min(grid.hx, grid.hy) ** 2)
    # sigma is 0 beside a positive kappa, so kappa = 0 is the classical law
    micro = replace(
        config, kappa=0.0, dt=micro_dt, t_end=3 * micro_dt,
        source_q=None, source_h=None,
    )

    def speeds(s):
        # h_t and h_tt alone: q_tt's fields are never formed here
        b, q_y, v, h_t, w_edge = _instant(config, s.q, s.h)
        return h_t, _speed_rates(config, s.q, b, q_y, v, w_edge, alpha)[0]

    state = init_state(micro, q0=q0.copy(), h0=h0.copy())
    samples = [speeds(state)]
    for _ in range(2):
        state = advance(state, micro)
        samples.append(speeds(state))
    c2 = time_derivative([0.0, micro_dt, 2.0 * micro_dt],
                         [h_tt for _, h_tt in samples], 1, 0)
    # beta expands -(interface speed): the boundary covector is the cofactor
    # row, whose contraction with v is minus the speed
    return (-samples[0][0], -samples[0][1], -c2)


def _speed_rates(config: SolverConfig, q: np.ndarray, b: MetricBundle,
                 q_y: np.ndarray, v: np.ndarray, w_edge: np.ndarray,
                 alpha: np.ndarray | None):
    """``(h_tt, rest)`` of data at t = 0 by equation substitution, from q and
    the instant's map ``b``, q_y, v and map velocity edge row: the kappa
    bootstrap reads h_tt alone, and q_tt builds on ``rest``, the fields
    (w, q_t, a_t, c_t, v_t)."""
    grid = config.grid
    w = extend_edge(grid, w_edge)

    q_t = transformed_laplacian_expanded(grid, b, q) - v[1] * w
    if alpha is not None:
        q_t = q_t + alpha
    if config.source_q is not None:
        q_t = q_t + config.source_q(0.0)

    # rates of the inverse-gradient entries: the inverse M^-1 of the map
    # gradient moves as -M^-1 (grad (0, w)) M^-1, which keeps its first
    # row (1, 0) fixed
    a, c = b.a, b.c
    w_x, w_y = gradient(grid, w)
    a_t = -c * (w_x + a * w_y)
    c_t = -c * c * w_y
    qt_x, qt_y = gradient(grid, q_t)
    # the rate of the pulled-back flux F = -v is F_t = -v_t
    v_t = -np.stack((qt_x + a * qt_y + a_t * q_y, c * qt_y + c_t * q_y))

    # interface speed rate: differentiate v0 h' - v1 on the edge
    h_tt = height_rate(b, v_t) + v[0, :, 0] * tangential_derivative(w_edge)
    return h_tt, (w, q_t, a_t, c_t, v_t)


def initial_time_derivatives(state: SolverState, config: SolverConfig) -> dict:
    """First and second time derivatives at t = 0 by equation substitution.

    It reads a t = 0 state: its q, v, q_y, map velocity edge row and
    alpha, and its map, rebuilt bit for bit from ``height``.  The heat
    equation supplies q_t, the height law h_t; differentiating those
    relations (with the map-inverse evolution rule) supplies the second
    derivatives and the velocity rate.  ``w_t``, the map acceleration, is
    returned by its edge row, whose harmonic extension it is.
    """
    grid, v = config.grid, state.v
    b = metric_bundle(grid, state.height)
    h_t = _interface_speed(config, state, v, 0.0)
    h_tt, (w, q_t, a_t, c_t, v_t) = _speed_rates(
        config, state.q, b, state.q_y, v, state.w_edge, state.alpha)
    a, c = b.a, b.c
    w_t_edge = _smoothed(h_tt, config)

    # q_tt = d/dt [TransformedLaplacian(q)] - v_t . w - v . w_t
    flux, flux_t = -v, -v_t
    dflux_y = vertical_derivative(flux, grid.hy, 1)
    dflux_t_y = vertical_derivative(flux_t, grid.hy, 1)
    lap_t = (a_t * dflux_y[0] + c_t * dflux_y[1]
             + tangential_derivative(flux_t[0]) + a * dflux_t_y[0]
             + c * dflux_t_y[1])
    q_tt = lap_t - v_t[1] * w - v[1] * extend_edge(grid, w_t_edge)

    return {
        "q_t": q_t, "q_tt": q_tt, "h_t": h_t, "h_tt": h_tt,
        "v_t": v_t, "w_t": w_t_edge,
    }
