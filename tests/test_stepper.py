"""Velocity, transformed Laplacian, time stepping."""

from __future__ import annotations

import pickle
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from stefansim.numerics import Grid, ConfigurationError, vertical_derivative
from stefansim.geometry import (
    extend_edge,
    harmonic_extend,
    metric_bundle,
)
from stefansim.operators import (
    compute_velocity,
    curl_residual,
    gradient,
    transformed_laplacian_expanded,
)
from stefansim import initdata, stepper
from stefansim.harness import simulate
from stefansim.initdata import DataSpec
from stefansim.stepper import (
    SolverConfig,
    advance,
    beta_value,
    height_rate,
    init_state,
    initial_time_derivatives,
)

GRID = Grid(64, 129)


def _short_config(**kw):
    base = dict(t_end=2.5e-4, snapshot_every=10,
                data=DataSpec(alpha=1.0))
    base.update(kw)
    return SolverConfig(**base)


def test_velocity_identity_map_linear_field():
    b = metric_bundle(GRID, np.zeros(GRID.nx))
    y = GRID.ys
    q = np.broadcast_to(y, (GRID.nx, GRID.ny)).copy()
    v = compute_velocity(GRID, b, q)
    assert np.max(np.abs(v[0])) <= 1e-12
    assert np.max(np.abs(v[1] + 1.0)) <= 1e-12


def test_velocity_slab_profile_hand_oracle():
    # q = alpha y - alpha^2 y^2 / 2 gives v = (0, alpha^2 y - alpha) and an
    # interface trace (0, -alpha)
    alpha = 1.0
    b = metric_bundle(GRID, np.zeros(GRID.nx))
    y = GRID.ys
    q = np.broadcast_to(alpha * y - 0.5 * alpha**2 * y * y,
                        (GRID.nx, GRID.ny)).copy()
    v = compute_velocity(GRID, b, q)
    assert np.max(np.abs(v[0])) <= 1e-12
    assert np.max(np.abs(v[1] - (alpha**2 * y - alpha))) <= 1e-10
    assert np.max(np.abs(v[1][:, 0] + alpha)) <= 1e-10


def test_velocity_curl_free_residual_refines():
    def residual(grid):
        h = 0.08 * np.cos(grid.xs)
        bundle = metric_bundle(grid, h)
        x, y = grid.mesh()
        q = np.sin(x) * (y - 0.5 * y * y) + 0.3 * (y**2 - y**3 / 3)
        v = compute_velocity(grid, bundle, q)
        return curl_residual(grid, bundle, v)

    coarse = residual(Grid(64, 129))
    fine = residual(Grid(128, 257))
    assert coarse / fine >= 3.5


def test_transformed_laplacian_flat_matches_plain():
    b = metric_bundle(GRID, np.zeros(GRID.nx))
    x, y = GRID.mesh()
    q = np.sin(2 * x) * (y**2 - y**3)
    exact = -4 * np.sin(2 * x) * (y**2 - y**3) + np.sin(2 * x) * (2 - 6 * y)
    lap_e = transformed_laplacian_expanded(GRID, b, q)
    assert np.max(np.abs((lap_e - exact)[:, 2:-2])) <= 1e-3


def test_transformed_laplacian_mms_order():
    # manufactured source at doubled resolution; residual order measured
    # away from the walls (the boundary rows carry lower-order coefficient
    # truncation that the solve does not inherit)
    def residual(grid):
        fine = Grid(2 * grid.nx, 2 * grid.ny - 1)
        hf = 0.06 * np.cos(fine.xs)
        bf = metric_bundle(fine, hf)
        xf, yf = fine.mesh()
        qf = np.cos(xf) * np.sin(0.5 * np.pi * yf)
        src = transformed_laplacian_expanded(fine, bf, qf)[::2, ::2]
        h = 0.06 * np.cos(grid.xs)
        b = metric_bundle(grid, h)
        x, y = grid.mesh()
        q = np.cos(x) * np.sin(0.5 * np.pi * y)
        lap = transformed_laplacian_expanded(grid, b, q)
        return float(np.max(np.abs((lap - src)[:, 3:-3])))

    e1 = residual(Grid(32, 65))
    e2 = residual(Grid(64, 129))
    assert np.log2(e1 / e2) >= 1.9


def test_zero_state_is_fixed_point():
    cfg = _short_config()
    st = init_state(cfg, q0=np.zeros((GRID.nx, GRID.ny)), h0=np.zeros(GRID.nx))
    for _ in range(10):
        st = advance(st, cfg)
    assert np.max(np.abs(st.q)) <= 1e-12
    assert np.max(np.abs(st.h)) <= 1e-12


def test_one_step_height_law_and_flux_record():
    cfg = _short_config()
    st = init_state(cfg)
    rate0 = height_rate(st, st.v)
    st1 = advance(st, cfg)
    # the height moved by dt times the recorded speed
    assert np.max(np.abs(st1.h - (st.h + cfg.dt * rate0))) <= 1e-15
    # the speed and the Jacobian-weighted flux agree in sign (flat start)
    from stefansim.numerics import edge_derivative

    flux = st.jac[:, 0] * edge_derivative(st.q, GRID.hy, 1)
    assert np.all(np.sign(rate0) == np.sign(flux))


def _fields(state):
    """The state's fields, the map's Jacobian and its velocity's edge row."""
    return {"q": state.q, "h": state.h, "v": state.v, "w_edge": state.w_edge,
            "jac": state.jac}


def test_advance_leaves_input_state_unchanged():
    cfg = _short_config(data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    st = init_state(cfg)
    before = {k: v.copy() for k, v in _fields(st).items()}
    a = advance(st, cfg)
    b = advance(st, cfg)
    for name, value in _fields(st).items():
        assert np.array_equal(value, before[name])
    for name, value in _fields(a).items():
        assert np.array_equal(value, _fields(b)[name])
    assert a.t == b.t == cfg.dt


def test_top_wall_discrete_flux_identically_zero():
    cfg = _short_config(data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    st = init_state(cfg)
    for _ in range(5):
        st = advance(st, cfg)
    top = (3 * st.q[:, -1] - 4 * st.q[:, -2] + st.q[:, -3]) / (2 * GRID.hy)
    assert np.max(np.abs(top)) <= 1e-11


def test_boundary_slip_machine_zero_classical():
    cfg = _short_config(data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    st = init_state(cfg)
    for _ in range(5):
        st = advance(st, cfg)
    # tangential velocity: v against the unit tangent (1, h') / g
    ve = st.v[:, :, 0]
    b = metric_bundle(GRID, st.height)
    vt = (ve[0] + ve[1] * b.dheight) / b.line_el
    assert np.max(np.abs(vt)) <= 1e-12


def test_margin_flag_raised_on_sign_violation():
    # the run loop takes the margins and raises the flags; 20 steps outlast
    # the 10 grace steps after the first nonpositive margin
    cfg = _short_config(t_end=5e-4)
    q0 = np.broadcast_to(-0.3 * GRID.ys, (GRID.nx, GRID.ny)).copy()
    traj = simulate(cfg, q0=q0, h0=np.zeros(GRID.nx))
    assert traj.margins[0] < 0.0
    assert traj.status == "taylor-flag"
    assert traj.flags == ("taylor", "stability margin nonpositive since step 1")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(dt=1e-3)
    with pytest.raises(ConfigurationError):
        SolverConfig(snapshot_every=0)
    # sigma and kappa select the interface law: both nonnegative, at most
    # one of them positive
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        SolverConfig(sigma=-0.1)
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        SolverConfig(kappa=-0.1)
    with pytest.raises(ConfigurationError, match="cannot both be positive"):
        SolverConfig(sigma=0.1, kappa=0.1)
    assert SolverConfig().mode == "classical"
    assert SolverConfig(sigma=0.1).mode == "surface_tension"
    assert SolverConfig(kappa=0.1).mode == "kappa"
    assert "mode" not in asdict(SolverConfig())


def test_config_grid_built_once():
    c = SolverConfig()
    assert c.grid is c.grid
    finer = replace(c, nx=128, ny=257, dt=6.25e-6)
    assert finer.grid.nx == 128 and finer.grid.ny == 257
    assert c.grid == Grid(64, 129)
    assert "grid" not in asdict(c)
    # the cached grid survives a pickle round trip
    back = pickle.loads(pickle.dumps(c))
    assert back == c and back.grid == c.grid


def test_initial_derivatives_match_early_differences():
    # the substituted initial rates agree with small-step differences
    cfg = _short_config(dt=1e-6, t_end=4e-6, snapshot_every=1)
    st0 = init_state(cfg)
    deriv = initial_time_derivatives(st0, cfg)
    states = [st0]
    for _ in range(3):
        states.append(advance(states[-1], cfg))
    qdot = (states[1].q - states[0].q) / cfg.dt
    # forward difference of the scheme vs the substituted q_t
    scale = max(1.0, float(np.max(np.abs(deriv["q_t"]))))
    assert np.max(np.abs(qdot - deriv["q_t"])) / scale <= 5e-2
    hdot = (states[1].h - states[0].h) / cfg.dt
    assert np.max(np.abs(hdot - deriv["h_t"])) <= 1e-3


def test_sigma_mode_trace_follows_curvature():
    cfg = _short_config(sigma=0.05,
                        data=DataSpec(alpha=1.0))
    st = init_state(cfg)
    for _ in range(8):
        st = advance(st, cfg)
    from stefansim.geometry import mean_curvature

    target = cfg.sigma * mean_curvature(st.h)
    assert np.max(np.abs(st.q[:, 0] - target)) <= 1e-10


def test_kappa_mode_trace_small_and_beta_consistent():
    cfg = _short_config(kappa=0.1)
    st = init_state(cfg)
    assert np.max(np.abs(st.q[:, 0])) <= 1e-6
    b0 = beta_value(st.beta_poly, 0.0)
    rate0 = height_rate(st, st.v)
    # beta(0) cancels the initial speed in the penalized condition
    assert np.max(np.abs(b0 + rate0)) <= 1e-6
    for _ in range(8):
        st = advance(st, cfg)
    assert np.max(np.abs(st.q[:, 0])) <= 1e-4


def _curved_config(**kw):
    return _short_config(data=DataSpec(alpha=1.0, h0_amplitude=0.05), **kw)


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_one_curved_step_transform_budget(monkeypatch):
    import sys

    from stefansim import numerics

    cfg = _curved_config()
    st = init_state(cfg)
    counts = {"fft": 0, "dy": 0}

    def counting(fn, key, counted=lambda f: True):
        def wrapped(f, *args, **kwargs):
            counts[key] += counted(f)
            return fn(f, *args, **kwargs)
        return wrapped

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name), "fft",
                                                   lambda f: np.ndim(f) >= 2))
    original = numerics.vertical_derivative
    for key, module in list(sys.modules.items()):
        if key.startswith("stefansim") and getattr(module, "vertical_derivative",
                                                    None) is original:
            monkeypatch.setattr(module, "vertical_derivative",
                                counting(original, "dy"))
    advance(st, cfg)
    assert counts["fft"] <= 5
    assert counts["dy"] <= 3


def test_carried_derivatives_match_recomputed_ones():
    from stefansim.operators import gradient

    cfg = _curved_config()
    st = advance(advance(init_state(cfg), cfg), cfg)
    q_y = gradient(GRID, st.q)[1]
    recomputed = replace(st, q_y=q_y, q_xy=gradient(GRID, q_y)[0])
    a, b = advance(st, cfg), advance(recomputed, cfg)
    for name in ("q", "v"):
        assert _relative(_fields(a)[name], _fields(b)[name]) <= 1e-13


def _two_call_step(state, cfg):
    """The classical step as separate transforms: the deviation, the strip
    solve and the velocity each from the temperature in physical space."""
    from stefansim.elliptic import DIRICHLET, NEUMANN, StripSolver
    from stefansim.operators import gauge_deviation

    dt = cfg.dt
    rate = height_rate(state, state.v)
    h = state.h + dt * rate
    phi = harmonic_extend(GRID, h)
    bundle = metric_bundle(GRID, h)
    # the map velocity as the difference quotient of the two maps
    w = (phi - harmonic_extend(GRID, state.height)) / dt
    rhs = state.q / dt + gauge_deviation(GRID, bundle, state.q) - state.v[1] * w
    solver = StripSolver(GRID, 1.0 / dt, DIRICHLET, NEUMANN)
    q = solver.solve(rhs, None, None)
    return {"q": q, "h": h, "v": compute_velocity(GRID, bundle, q), "w": w,
            "w_edge": rate, "jac": 1.0 + vertical_derivative(phi, GRID.hy, 1)}


def test_step_matches_the_two_call_oracle():
    cfg = _curved_config()
    st = advance(init_state(cfg), cfg)
    new = advance(st, cfg)
    got = _fields(new)
    want = _two_call_step(st, cfg)
    for name, value in got.items():
        assert _relative(value, want[name]) <= 1e-13, name
    # the step's map velocity extends the interface speed; the difference
    # quotient of the two maps differs from it by rounding over dt (9.8e-13
    # measured)
    assert _relative(extend_edge(GRID, new.w_edge), want["w"]) <= 1e-11


def _stored_bytes(snap):
    return sum(a.nbytes for a in vars(snap).values() if isinstance(a, np.ndarray))


def test_snapshot_keeps_the_map_and_its_velocity_by_edge_rows():
    # phi and w are harmonic extensions of their edge rows and v is derived
    # from q on the map, so a snapshot stores q whole and three edge rows:
    # h, phi_edge and w_edge; velocity() derives v on each call
    cfg = _curved_config(kappa=0.05)
    state = init_state(cfg)
    edge_rows = 3 * GRID.nx * state.h.itemsize
    previous = None
    for _ in range(4):
        snap = state.snapshot()
        assert [f.name for f in fields(snap)] == [
            "grid", "q", "h", "phi_edge", "w_edge"]
        assert _stored_bytes(snap) == state.q.nbytes + edge_rows
        assert snap.velocity().shape == state.v.shape
        if previous is not None:
            # after a step, w is the difference quotient of the two maps up
            # to rounding over dt
            quotient = (extend_edge(GRID, state.height)
                        - extend_edge(GRID, previous.height)) / cfg.dt
            assert _relative(extend_edge(GRID, snap.w_edge), quotient) <= 1e-10
        previous, state = state, advance(state, cfg)


def test_a_stepped_state_stores_only_what_its_readers_read():
    # a, c, the drift and the interior map velocity live inside the step:
    # a state keeps q, its carried derivatives, v, J and edge rows
    cfg = _curved_config()
    state = advance(init_state(cfg), cfg)
    field, edge = (GRID.nx, GRID.ny), (GRID.nx,)
    stored = {k: a.shape for k, a in vars(state).items()
              if isinstance(a, np.ndarray)}
    assert stored == {"q": field, "q_y": field, "q_xy": field,
                      "v": (2,) + field, "jac": field,
                      "h": edge, "height": edge, "dheight": edge,
                      "w_edge": edge}


@pytest.mark.parametrize("law", [{}, {"kappa": 0.05}, {"sigma": 0.01}])
def test_state_bundle_rebuilds_the_step_bundle(monkeypatch, law):
    # the bundle rebuilt from the state's height is the one the step built,
    # and the extension of the state's w_edge is the step's map velocity,
    # bit for bit: every step's w extends its (smoothed) interface speed,
    # as at t = 0, and is not the difference of two maps
    cfg = _curved_config(**law)
    state = init_state(cfg)
    built = []

    def recording(grid, h, rate=None):
        built.append(metric_bundle(grid, h, rate))
        return built[-1]

    monkeypatch.setattr(stepper, "metric_bundle", recording)
    for _ in range(3):
        built.clear()
        state = advance(state, cfg)
        (step,) = built
        assert state.jac is step.jac
        rebuilt = metric_bundle(GRID, state.height)
        for name in ("jac", "ac", "height", "dheight", "line_el", "jac_edge"):
            assert np.array_equal(getattr(rebuilt, name), getattr(step, name)), name
        assert np.array_equal(extend_edge(GRID, state.w_edge), step.w)


@pytest.mark.parametrize("law", [{}, {"kappa": 0.05}])
def test_one_step_traced_allocation_peak(law, traced_peak):
    # the new state is 6 fields; with the new map's a, c and w and the
    # step's transients the traced peak measured 15.07 fields at 64x129
    # (15.08 when a state kept phi, 18.07 when it kept its bundle and w)
    cfg = _curved_config(**law)
    state = advance(init_state(cfg), cfg)
    assert traced_peak(advance, state, cfg) <= 15.5 * state.q.nbytes


@pytest.mark.parametrize("law", [{}, {"sigma": 0.01}, {"kappa": 0.05}])
def test_snapshot_velocity_is_the_step_velocity(law):
    # the t = 0 state takes v from the same derivatives of q as the
    # snapshot; a step takes q_x from the solve's modes, so only rounding
    # separates them later
    cfg = _curved_config(**law)
    state = init_state(cfg)
    assert np.array_equal(state.snapshot().velocity(), state.v)
    for _ in range(3):
        state = advance(state, cfg)
        assert _relative(state.snapshot().velocity(), state.v) <= 1e-14


def test_snapshot_pickle_round_trip():
    # the derived velocity survives a pickle round trip
    cfg = _curved_config(kappa=0.05)
    snap = advance(init_state(cfg), cfg).snapshot()
    back = pickle.loads(pickle.dumps(snap))
    assert type(back) is type(snap)
    assert back.grid == snap.grid
    for name in ("q", "h", "phi_edge", "w_edge"):
        assert np.array_equal(getattr(back, name), getattr(snap, name)), name
    assert np.array_equal(back.velocity(), snap.velocity())


def test_snapshot_reads_by_key_only_for_the_benchmark():
    # a record, not a mapping: one __getitem__ is left for the benchmark's
    # final-field reads, "v" derives the velocity, any other key raises
    cfg = _curved_config(kappa=0.05)
    snap = advance(init_state(cfg), cfg).snapshot()
    assert not hasattr(stepper.Snapshot, "__iter__")
    assert not hasattr(stepper.Snapshot, "__len__")
    for name in ("q", "h", "phi_edge", "w_edge"):
        assert snap[name] is getattr(snap, name), name
    assert np.array_equal(snap["v"], snap.velocity())
    for key in ("grid", "velocity", "items", "x"):
        with pytest.raises(KeyError):
            snap[key]


@pytest.mark.parametrize("extra", [{}, {"sigma": 0.01}])
def test_snapshot_fields_own_their_memory(extra):
    from stefansim.harness import simulate

    traj = simulate(_curved_config(t_end=1e-4, snapshot_every=2, **extra))
    assert len(traj.snaps) == 3
    for snap in traj.snaps:
        owned = {name: getattr(snap, name)
                 for name in ("q", "h", "phi_edge", "w_edge")}
        owned["v"] = snap.velocity()
        for name, value in owned.items():
            assert value.flags.owndata, name


def test_config_owns_its_heat_solver(monkeypatch):
    from stefansim.elliptic import StripSolver

    built = []
    init = StripSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StripSolver, "__init__", counting_init)
    cfg = _short_config(data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    state = init_state(cfg)
    for _ in range(3):
        state = advance(state, cfg)
    assert built == [cfg.heat_solver]
    other = replace(cfg, dt=cfg.dt / 2)
    assert other.heat_solver is not cfg.heat_solver
    assert other.heat_solver is other.heat_solver
    assert len(built) == 2


def test_kappa_beta_does_not_depend_on_the_run_step(monkeypatch):
    # beta is a property of the data: the bootstrap micro step is fixed
    data = DataSpec(alpha=1.0, h0_amplitude=0.05)
    polys = [init_state(_short_config(kappa=0.05, dt=dt, data=data)).beta_poly
             for dt in (2.5e-5, 1.25e-5)]
    assert all(np.array_equal(a, b) for a, b in zip(*polys))
    # on a grid whose diffusive limit is below the micro step, the limit caps it
    monkeypatch.setattr(stepper, "BOOTSTRAP_DT", 1.0)
    cfg = SolverConfig(kappa=0.05, nx=16, ny=33, dt=1e-4, t_end=1e-3, data=data)
    assert all(np.all(np.isfinite(c)) for c in init_state(cfg).beta_poly)


def test_kappa_init_builds_each_map_once(monkeypatch):
    # the bootstrap's samples are data, not states: one kappa init builds
    # the state's map, the raw map of alpha, the micro init's map, the two
    # micro steps' maps and one map per sample, and takes no margin (the
    # run loop takes those)
    counts = {"metric_bundle": 0, "taylor_margin": 0}

    def counting(name, original):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(stepper, "metric_bundle",
                        counting("metric_bundle", stepper.metric_bundle))
    # the margin under every name the package binds it to
    original = initdata.taylor_margin
    for key, module in list(sys.modules.items()):
        if (key.startswith("stefansim")
                and getattr(module, "taylor_margin", None) is original):
            monkeypatch.setattr(module, "taylor_margin",
                                counting("taylor_margin", original))
    init_state(_curved_config(kappa=0.05))
    assert counts["metric_bundle"] <= 8
    assert counts["taylor_margin"] == 0


@pytest.mark.parametrize("amplitude", [0.0, 0.05])
@pytest.mark.parametrize("kappa", [0.2, 0.05])
def test_beta_starts_from_the_initial_derivatives(kappa, amplitude):
    # the bootstrap's first sample and the run's initial derivatives are one
    # evaluation of the same data, so beta(0) and beta'(0) are -h_t and
    # -h_tt bit for bit
    cfg = _short_config(kappa=kappa,
                        data=DataSpec(alpha=1.0, h0_amplitude=amplitude))
    state = init_state(cfg)
    deriv = initial_time_derivatives(state, cfg)
    assert np.array_equal(state.beta_poly[0], -deriv["h_t"])
    assert np.array_equal(state.beta_poly[1], -deriv["h_tt"])


@pytest.mark.parametrize("law", [{}, {"kappa": 0.05}])
def test_initial_derivatives_read_the_state(monkeypatch, law, traced_peak):
    # the t = 0 state holds the instant's q_y, v and map velocity edge row;
    # only its map is rebuilt, from its height.  24.2 fields measured at
    # 64x129 in kappa mode, against 28.2 when q's gradient and v were
    # derived again
    cfg = _curved_config(**law)
    state = init_state(cfg)
    assert traced_peak(initial_time_derivatives, state, cfg) <= 25 * state.q.nbytes
    built, gradients = [], []

    def recording(grid, h):
        built.append(h)
        return metric_bundle(grid, h)

    def counted_gradient(grid, f):
        gradients.append(f)
        return gradient(grid, f)

    monkeypatch.setattr(stepper, "metric_bundle", recording)
    monkeypatch.setattr(stepper, "gradient", counted_gradient)
    initial_time_derivatives(state, cfg)
    assert len(built) == 1 and built[0] is state.height
    # the map velocity and q_t are differentiated, q is not
    assert len(gradients) == 2 and not any(f is state.q for f in gradients)
