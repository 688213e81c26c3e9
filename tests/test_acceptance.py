"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
All tolerances are fixed here; the expensive shared runs live in
session-scoped fixtures (baseline grid 64 x 129, dt 2.5e-5, horizon 0.05).
"""

from __future__ import annotations

import numpy as np

from stefansim.numerics import Grid, edge_derivative
from stefansim.geometry import harmonic_extend, metric_bundle
from stefansim.mollifier import smooth_horizontal
from stefansim.initdata import (
    DataSpec,
    build_regularized_datum,
    build_sigma_data,
    compat_residuals,
    taylor_margin,
    transformed_laplacian_edge,
)
from stefansim.stepper import (
    SolverConfig,
    Snapshot,
    init_state,
    initial_time_derivatives,
)
from stefansim.analysis import (
    Trajectory,
    _Window,
    _instant_norms,
    energy_table,
    geometric_identities,
)
from stefansim.harness import build_config, run_simulation, simulate
from diagnostics import (
    boundary_norm,
    commutator_defect,
    dissipation_residual,
    interior_norm,
)

GRID = Grid(64, 129)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_harmonic_extension_oracle():
    import time

    t0 = time.time()
    h = 0.1 * np.cos(GRID.xs)
    phi = harmonic_extend(GRID, h)
    x, y = GRID.mesh()
    exact = 0.1 * np.cos(x) * np.sinh(1.0 - y) / np.sinh(1.0)
    err = float(np.max(np.abs(phi - exact)))
    elapsed = time.time() - t0
    # the time enters the line only when it breaks the bound, so the
    # verdict text does not depend on the machine's speed
    detail = f"closed-form error {err:.2e}"
    if elapsed >= 1.0:
        detail += f", took {elapsed:.3f}s (limit 1s)"
    _verdict(1, err <= 1e-10 and elapsed < 1.0, detail)


def test_criterion_02_trace_gain_stability():
    eps = 0.05
    worst = 0.0
    for k in range(1, 7):
        ratios = []
        for grid in (Grid(64, 129), Grid(128, 257)):
            h = eps * np.cos(k * grid.xs)
            phi = harmonic_extend(grid, h)
            ratios.append(interior_norm(phi, grid, 2)
                          / boundary_norm(h, 1.5))
        worst = max(worst, abs(ratios[1] - ratios[0]) / ratios[0])
    _verdict(2, worst <= 0.10, f"max relative drift under doubling {worst:.3f}")


def test_criterion_03_mollifier_suite():
    const_err = float(np.max(np.abs(
        smooth_horizontal(np.full(GRID.nx, 2.0), 0.1) - 2.0)))
    f = np.sin(2 * GRID.xs) + 0.3 * np.cos(5 * GRID.xs)
    from stefansim.numerics import tangential_derivative

    comm_err = float(np.max(np.abs(
        smooth_horizontal(tangential_derivative(f), 0.1)
        - tangential_derivative(smooth_horizontal(f, 0.1)))))
    grid = Grid(256, 17)
    F = np.sin(grid.xs)
    G = sum(np.cos(k * grid.xs + 0.7 * k * k)
            for k in range(4, grid.nx // 2 - 2))
    ratios = [commutator_defect(F, G, w) for w in (0.4, 0.2, 0.1, 0.05)]
    spread = max(ratios) / min(ratios)
    ok = const_err <= 1e-10 and comm_err <= 1e-9 and spread <= 3.0
    _verdict(3, ok, f"const {const_err:.1e}, commute {comm_err:.1e}, "
                    f"commutator spread {spread:.2f}")


def test_criterion_04_initial_data_suite():
    rep = compat_residuals(GRID, *build_sigma_data(GRID, DataSpec(alpha=1.0), 0.0))
    ok = (rep.r_dirichlet == 0.0 and rep.r_second <= 1e-8
          and rep.neumann_top <= 1e-10
          and abs(rep.taylor_margin - 1.0) <= 1e-10)
    sig_ok = True
    sigmas = (1e-1, 1e-2, 1e-3, 1e-4)
    dists = []
    base_cfg = SolverConfig(data=DataSpec(alpha=1.0))
    st0 = init_state(base_cfg)
    d0 = initial_time_derivatives(st0, base_cfg)
    for s in sigmas:
        q0, h0 = build_sigma_data(GRID, DataSpec(alpha=1.0), s)
        rs = compat_residuals(GRID, q0, h0, sigma=s)
        sig_ok = sig_ok and rs.r_second <= 1e-9
        cfg = SolverConfig(sigma=s,
                           data=DataSpec(alpha=1.0))
        st = init_state(cfg)
        ds = initial_time_derivatives(st, cfg)
        diff = Trajectory(
            config=base_cfg, times=[0.0],
            snaps=[Snapshot(GRID, st.q - st0.q, st.h - st0.h,
                            st.height - st0.height, st.w_edge - st0.w_edge)],
            margins=[taylor_margin(GRID, st.q - st0.q)],
            initial_derivatives={k: ds[k] - d0[k] for k in ds},
        )
        # the functional is quadratic in its argument, so the distance it
        # induces is the square root
        dists.append(np.sqrt(energy_table(diff)[-1].energy))
    slope = np.polyfit(np.log(sigmas), np.log(dists), 1)[0]
    ok_all = ok and sig_ok and abs(slope - 1.0) <= 0.1
    _verdict(4, ok_all,
             f"classical residuals ({rep.r_second:.1e}), sigma residuals ok: "
             f"{sig_ok}, energy-distance exponent {slope:.3f}")


def test_criterion_05_regularized_datum():
    q0, h0 = build_sigma_data(GRID, DataSpec(alpha=1.0), 0.0)
    b0 = metric_bundle(GRID, np.zeros(GRID.nx))
    q2 = edge_derivative(q0, GRID.hy, 1)
    errs = []
    traces = []
    margins = {}
    for width in (0.2, 0.1, 0.05):
        qr, _ = build_regularized_datum(GRID, q0, h0, width)
        trace_a = float(np.max(np.abs(qr[:, 0])))
        trace_b = float(np.max(np.abs(
            transformed_laplacian_edge(GRID, b0, qr) + q2 * q2)))
        traces.append(max(trace_a, trace_b))
        errs.append(interior_norm(qr - q0, GRID, 2))
        margins[width] = taylor_margin(GRID, qr)
    ok = (max(traces) <= 1e-6
          and all(a > b for a, b in zip(errs, errs[1:]))
          and margins[0.1] > 0.0 and margins[0.05] > 0.0)
    _verdict(5, ok, f"traces <= {max(traces):.1e}, H2 errors {errs}, "
                    f"margins {margins}")


def test_criterion_06_mms_orders(mms_table):
    ok = mms_table["spatial_pass"] and mms_table["temporal_pass"]
    _verdict(6, ok,
             f"spatial order {mms_table['spatial_order']:.2f} "
             f"(ratios {['%.2f' % r for r in mms_table['spatial_ratios']]}), "
             f"temporal order {mms_table['temporal_order']:.2f} "
             f"(ratios {['%.2f' % r for r in mms_table['temporal_ratios']]})")


def test_criterion_07_invariant_suite(invariant_run, invariant_probe_pair,
                                      baseline_run, baseline_run_half_dt):
    scale = 10.0 * GRID.hy**2
    ids = geometric_identities(invariant_run, -1)
    curl_ok = ids["curl_residual"] <= scale
    slip_ok = ids["slip_residual"] <= scale
    curv_ok = ids["curvature_identity_error"] <= 0.05

    coarse, fine = invariant_probe_pair
    idc = geometric_identities(coarse, -1)
    idf = geometric_identities(fine, -1)
    curl_ratio = idc["curl_residual"] / max(idf["curl_residual"], 1e-300)
    curl_halves = curl_ratio >= 3.5
    # the boundary slip is structurally exact in this discretization; the
    # halving check applies only above an absolute floor
    floor = 1e-12
    slip_halves = (
        (idc["slip_residual"] <= floor and idf["slip_residual"] <= floor)
        or idc["slip_residual"] / max(idf["slip_residual"], 1e-300) >= 3.5
    )

    d_base = dissipation_residual(baseline_run)
    d_half = dissipation_residual(baseline_run_half_dt)
    dis_ok = d_base <= 0.05 and d_base / d_half >= 1.5

    ok = curl_ok and slip_ok and curv_ok and curl_halves and slip_halves and dis_ok
    _verdict(7, ok,
             f"curl {ids['curl_residual']:.2e} (ratio {curl_ratio:.1f}), "
             f"slip {ids['slip_residual']:.1e}, "
             f"curvature {ids['curvature_identity_error']:.3f}, "
             f"dissipation {d_base:.2e} -> {d_half:.2e}")


def test_criterion_08_taylor_persistence(baseline_run):
    margin_ok = min(baseline_run.margins) >= 0.5
    config = SolverConfig(t_end=50 * 2.5e-5,
                          snapshot_every=1, data=DataSpec(alpha=1.0))
    y = GRID.ys
    bad_q = np.broadcast_to(-0.3 * y, (GRID.nx, GRID.ny)).copy()
    bad = simulate(config, q0=bad_q, h0=np.zeros(GRID.nx))
    steps_ran = round(bad.times[-1] / config.dt)
    flag_ok = bad.status == "taylor-flag" and steps_ran <= 11
    _verdict(8, margin_ok and flag_ok,
             f"min margin {min(baseline_run.margins):.3f} (>= 0.5), "
             f"violating datum flagged immediately, halted after "
             f"{steps_ran} steps")


def test_criterion_09_kappa_sweep(kappa_sweep_result):
    res = kappa_sweep_result
    bound_ok = all(res.extras["uniform_bound"])
    dist_ok = all(a >= b - 1e-15
                  for a, b in zip(res.distances, res.distances[1:]))
    fit_ok = abs(res.fit_exponent - 2.0) <= 0.3
    ok = bound_ok and dist_ok and fit_ok and \
        all(s == "completed" for s in res.statuses)
    _verdict(9, ok,
             f"sup E_k/E_k(0) bounded: {bound_ok}, distances "
             f"{['%.3g' % d for d in res.distances]}, penalty-trace exponent "
             f"{res.fit_exponent:.2f}")


def test_criterion_10_sigma_sweep(sigma_sweep_result):
    res = sigma_sweep_result
    horizon_ok = res.extras["same_horizon"]
    nonzero = [d for s, d in zip(res.values, res.distances) if s > 0]
    mono_ok = all(a >= b - 1e-15 for a, b in zip(nonzero, nonzero[1:]))
    decay_ok = nonzero[-1] <= 0.1 * nonzero[0]
    _verdict(10, horizon_ok and mono_ok and decay_ok,
             f"same horizon {horizon_ok}, distances "
             f"{['%.3g' % d for d in nonzero]} (tail/head "
             f"{nonzero[-1] / nonzero[0]:.3g})")


def test_criterion_11_energy_order_echoes(kappa_sweep_result):
    res = kappa_sweep_result
    order_ok = all(res.extras["order_ok"])
    ratios = [r for pair in res.extras["ratio_ranges"] for r in pair]
    band_ok = max(ratios) / min(ratios) <= 10.0
    cfg = SolverConfig(kappa=0.1, t_end=2e-3,
                       snapshot_every=20, data=DataSpec(alpha=1.0))
    traj = simulate(cfg)
    # the flux-weighted edge summands of the natural energy
    vals = _instant_norms(traj, len(traj) - 1, _Window(traj))
    terms = [v for (name, *_), v in vals.items() if name in ("wh", "wht")]
    coercive_ok = all(t == t and t >= 0.0 for t in terms)
    _verdict(11, order_ok and band_ok and coercive_ok,
             f"E <= E_kappa on all runs: {order_ok}, ratio band "
             f"x{max(ratios) / min(ratios):.2f}, edge summands >= 0: "
             f"{coercive_ok}")


def test_criterion_12_determinism(tmp_path):
    settings = {"t_end": 5e-3, "snapshot_every": 20, "output.svg": False}
    config = build_config(settings)
    run_simulation(config, outdir=tmp_path / "a", settings=settings)
    run_simulation(config, outdir=tmp_path / "b", settings=settings)
    same = (tmp_path / "a" / "energies.csv").read_bytes() \
        == (tmp_path / "b" / "energies.csv").read_bytes()
    profiles = sorted(p.name for p in (tmp_path / "a").iterdir()
                      if p.name.startswith("interface"))
    for name in profiles:
        same = same and (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    _verdict(12, same, "byte-identical CSV outputs across repeated runs")
