"""Energy functionals, trajectory distances, identity diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from stefansim.numerics import Grid, boundary_norm, interior_norm
from stefansim.geometry import metric_bundle
from stefansim.operators import compute_velocity
from stefansim.initdata import DataSpec, taylor_margin
from stefansim.stepper import SolverConfig
from stefansim.analysis import (
    Trajectory,
    UsageError,
    dissipation_residual,
    energy_report,
    energy_table,
    geometric_identities,
    mixed_cnorm,
    natural_edge_terms,
)
from stefansim.harness import simulate

GRID = Grid(64, 129)


def _zero_derivs(grid):
    zeros = np.zeros((grid.nx, grid.ny))
    vzeros = np.zeros((2, grid.nx, grid.ny))
    return {"q_t": zeros, "q_tt": zeros, "h_t": np.zeros(grid.nx),
            "h_tt": np.zeros(grid.nx), "v_t": vzeros, "w_t": zeros}


def _static_trajectory(config, q, h, n_snaps=5):
    grid = config.grid
    bundle = metric_bundle(grid, h)
    phi = bundle.phi
    v = compute_velocity(grid, bundle, q)
    w = np.zeros_like(phi)
    dt = config.dt * config.snapshot_every
    snaps = [{"q": q, "h": h, "v": v, "w": w, "phi": phi}
             for _ in range(n_snaps)]
    return Trajectory(
        config=config,
        times=[i * dt for i in range(n_snaps)],
        snaps=snaps,
        margins=[taylor_margin(grid, q)] * n_snaps,
        initial_derivatives=_zero_derivs(grid),
    )


def _roll_trajectory(traj, shift):
    rolled = []
    for s in traj.snaps:
        rolled.append({
            "q": np.roll(s["q"], shift, axis=0),
            "h": np.roll(s["h"], shift),
            "v": np.roll(s["v"], shift, axis=1),
            "w": np.roll(s["w"], shift, axis=0),
            "phi": np.roll(s["phi"], shift, axis=0),
        })
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
    rep = energy_report(traj)
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
    rep = energy_report(traj)
    T = traj.times[-1]
    v = traj.snaps[0]["v"]

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
    rep = energy_report(traj)
    T = traj.times[-1]
    v = traj.snaps[0]["v"]

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
    from stefansim.numerics import (
        integrate_boundary,
        integrate_interior,
        tangential_derivative,
    )

    x, y = GRID.mesh()
    q = (y - 0.5 * y * y) * (1.0 + 0.1 * np.sin(x))
    h = 0.02 * np.cos(GRID.xs) + 0.005 * np.sin(2 * GRID.xs)
    traj = _static_trajectory(CFG, q, h)
    assert traj.margins[0] == pytest.approx(0.9, rel=1e-12)
    rep = energy_report(traj)
    T = traj.times[-1]
    v = traj.snaps[0]["v"]
    bundle = metric_bundle(GRID, h)

    combo = integrate_interior(
        (tangential_derivative(q, 4)
         + v[1] * tangential_derivative(bundle.phi, 4)) ** 2, GRID)
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
    from stefansim.numerics import integrate_interior, tangential_derivative

    va = tangential_derivative(v, a) if a else v
    return float(integrate_interior(va[0] ** 2 + va[1] ** 2, grid))


def test_energy_translation_invariance():
    x, y = GRID.mesh()
    q = 0.1 * np.sin(x) * (y - 0.5 * y * y) + 0.05 * (y**2 - y**3 / 3)
    h = 0.03 * np.cos(GRID.xs)
    traj = _static_trajectory(CFG, q, h)
    rolled = _roll_trajectory(traj, 7)
    r0 = energy_report(traj)
    r1 = energy_report(rolled)
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
    for term in natural_edge_terms(traj, -1):
        assert term == term and term >= 0.0


def test_dissipation_zero_and_mode_guard():
    traj = _static_trajectory(CFG, np.zeros((GRID.nx, GRID.ny)),
                              np.zeros(GRID.nx))
    assert dissipation_residual(traj) == 0.0
    scfg = SolverConfig(sigma=0.1, t_end=2e-3,
                        snapshot_every=20, data=DataSpec(alpha=1.0))
    straj = _static_trajectory(scfg, np.zeros((GRID.nx, GRID.ny)),
                               np.zeros(GRID.nx))
    with pytest.raises(UsageError):
        dissipation_residual(straj)


def test_interface_speed_records_present():
    cfg = SolverConfig(t_end=2e-3, snapshot_every=20,
                       data=DataSpec(alpha=1.0))
    traj = simulate(cfg)
    rep = energy_report(traj)
    # both sides of the interface-speed record are finite and agree in sign
    # for the flat expanding run
    assert rep.interface_speed_mean == rep.interface_speed_mean
    assert rep.interface_flux_mean == rep.interface_flux_mean
    assert np.sign(rep.interface_speed_mean) == np.sign(rep.interface_flux_mean)


def test_bundle_at_rebuilds_the_map_of_the_step():
    # in kappa mode the map extends the smoothed height while the snapshot
    # keeps the raw one; the analysis must rebuild the map the step used
    cfg = SolverConfig(kappa=0.05, t_end=5e-4, snapshot_every=10,
                       data=DataSpec(alpha=1.0, h0_amplitude=0.05))
    traj = simulate(cfg)
    assert len(traj) == 3
    for i, snap in enumerate(traj.snaps):
        bundle = traj.bundle_at(i)
        # the bundle keeps the stored map, which the rebuild reproduces
        assert bundle.phi is snap["phi"]
        assert np.array_equal(metric_bundle(cfg.grid, snap["phi"][:, 0]).phi,
                              snap["phi"])
        assert np.array_equal(bundle.height, snap["phi"][:, 0])
        assert not np.array_equal(bundle.height, snap["h"])
