"""Energy functionals, trajectory distances, identity diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from stefansim.numerics import (
    Grid,
    edge_derivative,
    integrate_interior,
    tangential_derivative,
    vertical_derivative,
)
from stefansim.geometry import extend_edge, metric_bundle
from stefansim.mollifier import smooth_horizontal
from stefansim.initdata import DataSpec, taylor_margin
from stefansim.stepper import SolverConfig, Snapshot, advance, init_state
from stefansim.analysis import (
    Trajectory,
    UsageError,
    _Window,
    _instant_norms,
    energy_table,
    geometric_identities,
    mixed_cnorm,
)
from stefansim.harness import simulate
from diagnostics import boundary_norm, integrate_boundary, interior_norm

GRID = Grid(64, 129)


def _zero_derivs(grid):
    zeros = np.zeros((grid.nx, grid.ny))
    vzeros = np.zeros((2, grid.nx, grid.ny))
    return {"q_t": zeros, "q_tt": zeros, "h_t": np.zeros(grid.nx),
            "h_tt": np.zeros(grid.nx), "v_t": vzeros, "w_t": np.zeros(grid.nx)}


def _static_trajectory(config, q, h, n_snaps=5):
    grid = config.grid
    dt = config.dt * config.snapshot_every
    snaps = [Snapshot(grid, q, h, h, np.zeros(grid.nx))] * n_snaps
    return Trajectory(
        config=config,
        times=[i * dt for i in range(n_snaps)],
        snaps=snaps,
        margins=[taylor_margin(grid, q)] * n_snaps,
        initial_derivatives=_zero_derivs(grid),
    )


def _roll_trajectory(traj, shift):
    rolled = [Snapshot(s.grid, np.roll(s.q, shift, axis=0), np.roll(s.h, shift),
                       np.roll(s.phi_edge, shift), np.roll(s.w_edge, shift))
              for s in traj.snaps]
    init = {
        k: np.roll(v, shift, axis=1 if v.ndim == 3 else 0)
        for k, v in traj.initial_derivatives.items()
    }
    return Trajectory(
        config=traj.config, times=list(traj.times), snaps=rolled,
        margins=list(traj.margins), initial_derivatives=init,
        dissipation=list(traj.dissipation),
    )


CFG = SolverConfig(t_end=2e-3, snapshot_every=20,
                   data=DataSpec(alpha=1.0))


def test_zero_trajectory_all_energies_zero():
    traj = _static_trajectory(CFG, np.zeros((GRID.nx, GRID.ny)),
                              np.zeros(GRID.nx))
    rep = energy_table(traj)[-1]
    assert rep.energy == 0.0
    assert rep.lower_order == 0.0
    # zero data has zero stability margin, so the flux-weighted edge part
    # of the natural energy is undefined
    assert rep.natural_energy != rep.natural_energy


def test_static_trajectory_term_by_term_oracle():
    # frozen fields: every time derivative vanishes, so the energy is the
    # instantaneous spatial sums plus their time integrals; cross-check
    # term by term with direct norm calls
    x, y = GRID.mesh()
    q = 0.1 * np.sin(x) * (y - 0.5 * y * y)
    h = 0.02 * np.cos(GRID.xs)
    traj = _static_trajectory(CFG, q, h)
    rep = energy_table(traj)[-1]
    T = traj.times[-1]
    v = traj.snaps[0].velocity()

    # frozen fields: only the b = 0 members of every family survive
    v_l2 = sum(interior_norm_sq_of_component(v, a, GRID) for a in range(5))
    v_c0 = sum(interior_norm_sq_of_component(v, a, GRID) for a in range(4))
    expected = (
        T * v_l2 + v_c0
        + interior_norm(q, GRID, 4) ** 2
        + T * interior_norm(q, GRID, 5) ** 2
        + boundary_norm(h, 4.0) ** 2
    )
    assert rep.energy == pytest.approx(expected, rel=1e-12)


def test_static_trajectory_lower_order_term_by_term_oracle():
    # the reduced-order monitor on frozen fields: the velocity families of
    # order <= 2 (integrated) and <= 1 (maximum), the H^2/H^3 temperature
    # and the H^2/H^3 smoothed height (the raw one outside kappa mode); the
    # kappa-weighted speed families vanish with kappa
    x, y = GRID.mesh()
    q = 0.1 * np.sin(x) * (y - 0.5 * y * y)
    h = 0.02 * np.cos(GRID.xs)
    traj = _static_trajectory(CFG, q, h)
    rep = energy_table(traj)[-1]
    T = traj.times[-1]
    v = traj.snaps[0].velocity()

    expected = (
        T * sum(interior_norm_sq_of_component(v, a, GRID) for a in range(3))
        + sum(interior_norm_sq_of_component(v, a, GRID) for a in range(2))
        + interior_norm(q, GRID, 2) ** 2
        + T * interior_norm(q, GRID, 3) ** 2
        + boundary_norm(h, 2.0) ** 2
        + T * boundary_norm(h, 3.0) ** 2
    )
    assert rep.lower_order == pytest.approx(expected, rel=1e-12)


def test_static_trajectory_natural_energy_oracle():
    # frozen curved fields: every time derivative vanishes, so of the gauge
    # combinations only the top one, d^4_x q + v1 d^4_x phi, survives, and of
    # the flux-weighted edge terms only (q_y / J) (d^4_x h)^2; cross-check
    # both and the velocity sums against direct physical-space evaluation
    x, y = GRID.mesh()
    q = (y - 0.5 * y * y) * (1.0 + 0.1 * np.sin(x))
    h = 0.02 * np.cos(GRID.xs) + 0.005 * np.sin(2 * GRID.xs)
    traj = _static_trajectory(CFG, q, h)
    assert traj.margins[0] == pytest.approx(0.9, rel=1e-12)
    rep = energy_table(traj)[-1]
    T = traj.times[-1]
    v = traj.snaps[0].velocity()
    bundle = metric_bundle(GRID, h)

    combo = integrate_interior(
        (tangential_derivative(q, 4)
         + v[1] * tangential_derivative(extend_edge(GRID, h), 4)) ** 2, GRID)
    # q_y on the edge is 1 + 0.1 sin x
    flux_w = (1.0 + 0.1 * np.sin(GRID.xs)) / bundle.jac_edge
    edge = integrate_boundary(flux_w * tangential_derivative(h, 4) ** 2,
                              GRID) / (2.0 * np.pi)
    expected = (
        T * sum(interior_norm_sq_of_component(v, a, GRID) for a in range(5))
        + 0.5 * sum(interior_norm_sq_of_component(v, a, GRID) for a in range(4))
        + 0.5 * combo
        + 0.5 * edge
    )
    assert rep.natural_energy == pytest.approx(expected, rel=1e-12)


def interior_norm_sq_of_component(v, a, grid):
    va = tangential_derivative(v, a) if a else v
    return float(integrate_interior(va[0] ** 2 + va[1] ** 2, grid))


def test_energy_translation_invariance():
    x, y = GRID.mesh()
    q = 0.1 * np.sin(x) * (y - 0.5 * y * y) + 0.05 * (y**2 - y**3 / 3)
    h = 0.03 * np.cos(GRID.xs)
    traj = _static_trajectory(CFG, q, h)
    rolled = _roll_trajectory(traj, 7)
    r0 = energy_table(traj)[-1]
    r1 = energy_table(rolled)[-1]
    for name in ("energy", "energy_sigma", "lower_order", "natural_energy",
                 "natural_energy_sigma"):
        a, b = getattr(r0, name), getattr(r1, name)
        if a == a and b == b:
            assert b == pytest.approx(a, rel=1e-9)


def test_report_determinism():
    x, y = GRID.mesh()
    q = 0.1 * np.sin(x) * (y - 0.5 * y * y)
    traj = _static_trajectory(CFG, q, np.zeros(GRID.nx))
    rows1 = [r.row() for r in energy_table(traj)]
    rows2 = [r.row() for r in energy_table(traj)]
    assert rows1 == rows2


def test_mixed_cnorm_self_and_constant_shift():
    traj = _static_trajectory(CFG, np.zeros((GRID.nx, GRID.ny)),
                              np.zeros(GRID.nx))
    assert mixed_cnorm(traj, traj) == 0.0
    q_shift = np.full((GRID.nx, GRID.ny), 0.37)
    other = _static_trajectory(CFG, q_shift, np.zeros(GRID.nx))
    assert mixed_cnorm(other, traj) == pytest.approx(0.37, abs=1e-9)


def test_mixed_cnorm_height_perturbation_direct_oracle():
    eps = 1e-3
    x, y = GRID.mesh()
    q = 0.1 * np.sin(x) * (y - 0.5 * y * y)
    base = _static_trajectory(CFG, q, np.zeros(GRID.nx))
    pert = _static_trajectory(CFG, q, eps * np.cos(GRID.xs))
    got = mixed_cnorm(pert, base)
    # direct evaluation: the height part is |e cos| + 0 + |e sin| + |e cos|
    # maximized over the grid; the temperature part is zero
    edge = eps * (2.0 * np.abs(np.cos(GRID.xs)) + np.abs(np.sin(GRID.xs)))
    assert got == pytest.approx(float(np.max(edge)), rel=1e-12)


def test_mixed_cnorm_mismatch_errors():
    traj = _static_trajectory(CFG, np.zeros((GRID.nx, GRID.ny)),
                              np.zeros(GRID.nx))
    other_cfg = SolverConfig(t_end=2e-3, dt=5e-6,
                             snapshot_every=20, nx=128, ny=257,
                             data=DataSpec(alpha=1.0))
    other = _static_trajectory(other_cfg, np.zeros((128, 257)), np.zeros(128))
    with pytest.raises(UsageError):
        mixed_cnorm(traj, other)


def test_geometric_identities_flat_linear_field():
    y = GRID.ys
    q = np.broadcast_to(y, (GRID.nx, GRID.ny)).copy()
    traj = _static_trajectory(CFG, q, np.zeros(GRID.nx))
    ids = geometric_identities(traj, 0)
    assert ids["curl_residual"] <= 1e-12
    assert ids["slip_residual"] <= 1e-12
    assert ids["curvature_identity_error"] <= 1e-12


def test_geometric_identities_on_run():
    cfg = SolverConfig(t_end=2e-3, snapshot_every=20,
                       data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    traj = simulate(cfg)
    ids = geometric_identities(traj, -1)
    assert ids["slip_residual"] <= 1e-12
    assert ids["curl_residual"] <= 10 * GRID.hy**2
    assert ids["curvature_identity_error"] <= 0.05


def test_natural_energy_edge_terms_nonnegative():
    cfg = SolverConfig(t_end=2e-3, snapshot_every=20,
                       data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    traj = simulate(cfg)
    # the flux-weighted edge summands of the natural energy
    vals = _instant_norms(traj, len(traj) - 1, _Window(traj))
    terms = [v for (name, *_), v in vals.items() if name in ("wh", "wht")]
    assert len(terms) == 5
    for term in terms:
        assert term == term and term >= 0.0


def test_interface_speed_records_present():
    cfg = SolverConfig(t_end=2e-3, snapshot_every=20,
                       data=DataSpec(alpha=1.0))
    traj = simulate(cfg)
    rep = energy_table(traj)[-1]
    # both sides of the interface-speed record are finite and agree in sign
    # for the flat expanding run
    assert rep.interface_speed_mean == rep.interface_speed_mean
    assert rep.interface_flux_mean == rep.interface_flux_mean
    assert np.sign(rep.interface_speed_mean) == np.sign(rep.interface_flux_mean)


def test_window_rebuilds_the_map_of_the_step():
    # in kappa mode the map extends the smoothed height while the snapshot
    # keeps the raw one; the analysis must rebuild the map the step used
    cfg = SolverConfig(kappa=0.05, t_end=5e-4, snapshot_every=10,
                       data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    traj = simulate(cfg)
    assert len(traj) == 3
    # the states the step produced at the snapshot instants
    state = init_state(cfg)
    states = [state]
    for n in range(1, cfg.n_steps + 1):
        state = advance(state, cfg)
        if n % cfg.snapshot_every == 0:
            states.append(state)
    window = _Window(traj)
    for i, snap in enumerate(traj.snaps):
        rows = window.row_map(i)
        # the rebuild from the stored edge row is the step's map bit for
        # bit: its edge rows, and the Jacobian, which reads the interior
        assert np.array_equal(rows.height, states[i].height)
        assert np.array_equal(rows.dheight, states[i].dheight)
        assert np.array_equal(rows.jac_edge, states[i].jac[:, 0])
        assert not np.array_equal(rows.height, snap.h)
        # the velocity on it is the step's up to rounding
        assert np.allclose(window[i], states[i].v, rtol=0.0, atol=1e-13)


def _short_kappa_run():
    return simulate(SolverConfig(kappa=0.05, t_end=5e-4, snapshot_every=2,
                                 data=DataSpec(alpha=1.0, h0_amplitude=0.05)))


def test_energy_table_leaves_the_snapshots_as_they_were():
    # the derived velocities live in the table pass only: a cache on the
    # snapshots would bring their memory back
    traj = _short_kappa_run()
    before = [dict(vars(s)) for s in traj.snaps]
    energy_table(traj)
    for snap, stored in zip(traj.snaps, before):
        after = vars(snap)
        assert after.keys() == stored.keys()
        assert all(after[k] is stored[k] for k in stored)


def test_energy_table_derives_each_velocity_once(monkeypatch):
    # the time stencils of a row reuse their neighbours' velocities, and a
    # row's norms and identities share the edge rows of one bundle: each
    # snapshot's map is built once, with its velocity, ahead of its row or
    # not
    from stefansim import analysis, stepper

    traj = _short_kappa_run()
    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((analysis, "metric_bundle"), (stepper, "metric_bundle"),
                         (stepper, "compute_velocity")):
        monkeypatch.setattr(module, name, counted(
            (module.__name__, name), getattr(module, name)))
    energy_table(traj)
    n = len(traj)
    assert n == 11
    assert calls == {("stefansim.analysis", "metric_bundle"): n,
                     ("stefansim.stepper", "compute_velocity"): n}


def test_energy_table_lists_each_stored_series_once():
    # a time derivative reads a stored field's series; listing it from the
    # snapshots on every call made a pass read them quadratically often
    traj = simulate(SolverConfig(nx=16, ny=33, kappa=0.05, t_end=1e-3,
                                 snapshot_every=2,
                                 data=DataSpec(alpha=1.0, h0_amplitude=0.05)))
    listed = []

    class Listed(list):
        def __iter__(self):
            listed.append(1)
            return super().__iter__()

    traj.snaps = Listed(traj.snaps)
    energy_table(traj)
    assert len(traj) == 21
    # once for each of q, h, phi_edge and w_edge
    assert len(listed) <= 4


def test_energy_table_transforms_each_temperature_field_once(monkeypatch):
    # per snapshot, one x-transform of each time order of q feeds both its
    # Sobolev and its gauge-combination families; the velocity and the curl
    # take one more each
    traj = simulate(SolverConfig(kappa=0.05, t_end=5e-4, snapshot_every=5,
                                 data=DataSpec(alpha=1.0, h0_amplitude=0.05)))
    grid = traj.grid
    rfft = np.fft.rfft
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    energy_table(traj)
    assert len(traj) == 5
    assert calls.count((grid.nx, grid.ny)) == 5 * len(traj)


def test_energy_table_identities_match_a_fresh_window():
    # the table's rows read the identities through the pass's shared
    # window; called alone, geometric_identities builds a window of its own
    traj = _short_kappa_run()
    for idx, row in enumerate(energy_table(traj)):
        alone = geometric_identities(traj, idx)
        assert alone.keys() == {
            "curl_residual", "slip_residual", "curvature_identity_error",
            "interface_speed_mean", "interface_flux_mean"}
        for name, val in alone.items():
            assert np.array_equal(getattr(row, name), val, equal_nan=True), name


def test_energy_table_traced_allocation_peak(traced_peak):
    # a pass keeps four velocities and one snapshot's time derivatives at a
    # time, releases each once its families are done, and keeps two levels
    # of a y-ladder; 22.7 fields measured at 64x129, against 29.7 when each
    # row kept its bundle and all its derivatives and ladders
    traj = _short_kappa_run()
    field = traj.snaps[0].q.nbytes
    assert traced_peak(energy_table, traj) <= 23.5 * field


def _dy(f, b, hy):
    # the y-stencil composition of the interior norms: odd b take one first
    # difference after (b - 1) / 2 second differences
    if b == 0:
        return f
    if b % 2:
        return vertical_derivative(_dy(f, b - 1, hy), hy, 1)
    return vertical_derivative(_dy(f, b - 2, hy), hy, 2)


def _moving_trajectory(config, seed, n_snaps=6, tau=0.01):
    """Fields quadratic in t with random smooth x-profiles (fixed seed).

    The map extends the layer-smoothed height in kappa mode, as the step
    does; one snapshot has a negative margin, so its flux-weighted edge
    families are None.
    """
    grid = config.grid
    rng = np.random.default_rng(seed)
    x, y = grid.mesh()

    def profile(scale):
        k = np.arange(1, 5)[:, None, None]
        c, s = scale * rng.standard_normal((2, 4, 1, 1)) / k**2
        return (c * np.cos(k * x) + s * np.sin(k * x)).sum(axis=0)

    heights = [profile(0.01)[:, 0] for _ in range(3)]
    temps = [(y - 0.5 * y * y) * (1.0 + profile(0.1)) for _ in range(3)]
    times = [i * tau for i in range(n_snaps)]
    hs = [sum(t**m * f for m, f in enumerate(heights)) for t in times]
    qs = [sum(t**m * f for m, f in enumerate(temps)) for t in times]
    edges = [smooth_horizontal(h, config.kappa) if config.kappa > 0 else h
             for h in hs]
    w_edges = [rng.standard_normal() * edges[0]] + [
        (b - a) / tau for a, b in zip(edges, edges[1:])]
    snaps = [Snapshot(grid, *fields) for fields in zip(qs, hs, edges, w_edges)]
    initial = {"q_t": temps[1], "q_tt": 2.0 * temps[2], "h_t": heights[1],
               "h_tt": 2.0 * heights[2],
               "v_t": (snaps[1].velocity() - snaps[0].velocity()) / tau,
               "w_t": (snaps[1].w_edge - snaps[0].w_edge) / tau}
    margins = [0.5] * n_snaps
    margins[2] = -0.1
    return Trajectory(config=config, times=times, snaps=snaps, margins=margins,
                      initial_derivatives=initial)


def _instant_norms_oracle(traj, idx):
    """Every family by its own formula: x-derivatives by
    tangential_derivative, smoothing by smooth_horizontal, edge squares by
    integrate_boundary / 2 pi, Sobolev edge norms by boundary_norm, the
    map and its rates by extend_edge of their edge rows."""
    grid = traj.grid
    kappa = traj.config.kappa
    window = _Window(traj)
    bundle = metric_bundle(grid, traj.snaps[idx].phi_edge)

    def get(name, b=0):
        return window(name, idx, b)

    def dx(f, a):
        return tangential_derivative(f, a) if a else f

    def smooth(f):
        return smooth_horizontal(f, kappa) if kappa > 0 else f

    def edge(f, weight=1.0):
        return integrate_boundary(weight * f * f, grid) / (2.0 * np.pi)

    jac = bundle.jac_edge
    sig_w = bundle.line_el**-3 / jac
    flux_w = edge_derivative(traj.snaps[idx].q, grid.hy, 1) / jac

    def flux(f):
        return edge(f, flux_w) if traj.margins[idx] > 0 else None

    out = {}
    for b in range(3):
        amax = 4 - 2 * b
        v = get("v", b)
        for a in range(amax + 1):
            out["v", a, b] = sum(integrate_interior(dx(c, a) ** 2, grid)
                                 for c in v)
        q = get("q", b)
        top = 5 - 2 * b
        sq = {(a, c): integrate_interior(dx(_dy(q, c, grid.hy), a) ** 2, grid)
              for a in range(top + 1) for c in range(top + 1 - a)}
        for s in range(max(2 - 2 * b, 0), top + 1):
            out["qH", s, b] = sum(val for (a, c), val in sq.items() if a + c <= s)
        h, r = get("h", b), get("rate", b)
        for s in (amax, amax + 1):
            out["hB", s, b] = boundary_norm(h, s) ** 2
        for s in range(max(amax - 2, 0), amax + 1):
            out["hBs", s, b] = boundary_norm(smooth(h), s) ** 2
        out["wh", amax, b] = flux(dx(smooth(h), amax))
        for a in range(amax + 1):
            out["sigh", a, b] = edge(dx(h, a + 1), sig_w)
            out["ht", a, b] = edge(dx(r, a))
            out["htJ", a, b] = edge(dx(r, a), 1.0 / jac)
        for a in range(amax):
            out["htJ2", a, b] = edge(dx(r, a), 1.0 / jac**2)
            out["sight", a, b] = edge(dx(r, a + 1), sig_w)
        if amax:
            out["wht", amax - 1, b] = flux(dx(smooth(r), amax - 1))
        if b < 2:
            for s in (3 - 2 * b, 4 - 2 * b):
                out["htB", s, b] = boundary_norm(r, s) ** 2
    v1 = get("v")[1]
    for fam, shift, n in (("combo", 0, 4), ("combot", 1, 3)):
        for b in range(n // 2 + 1):
            a = n - 2 * b
            q = get("q", b + shift)
            p = extend_edge(grid, get("phi_edge", b + shift))
            out[fam, a, b] = integrate_interior(
                (dx(q, a) + dx(p, a) * v1) ** 2, grid)
    return out


@pytest.mark.parametrize("law, seed", [({"kappa": 0.2}, 11), ({"sigma": 0.01}, 12),
                                       ({}, 13)])
def test_instant_norms_match_the_per_family_formulas(law, seed):
    # a moving trajectory reaches every family: the smoothed height, the
    # speed's ladders and Sobolev norms, the sigma-weighted and the
    # gauge-combination ones at every time order
    cfg = SolverConfig(nx=32, ny=33, dt=1e-4, t_end=1e-3, snapshot_every=1,
                       **law)
    traj = _moving_trajectory(cfg, seed)
    for idx in range(len(traj)):
        got = _instant_norms(traj, idx, _Window(traj))
        want = _instant_norms_oracle(traj, idx)
        assert got.keys() == want.keys()
        for key, val in want.items():
            if val is None:
                assert got[key] is None, key
            else:
                assert val > 0.0, key
                assert abs(got[key] - val) <= 1e-12 * val, key
