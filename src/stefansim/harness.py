"""Run orchestration: single runs, parameter sweeps, convergence studies.

The harness owns configuration parsing, trajectory recording, and all file
output: ``manifest.json`` (run metadata, always written, even on abort),
``energies.csv`` (one report row per snapshot, stable column order),
``interface_t*.csv`` (edge profiles at selected times), and optional SVG
line plots.  Runs are deterministic: identical configurations produce
byte-identical CSV files.

Config files are flat key = value text; dotted keys address nested fields
(``data.alpha = 1.0``), and the same syntax is accepted by the CLI's
override flag.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .numerics import ConfigurationError, Grid
from .geometry import DegenerateMapError, InvalidGeometryError
from .elliptic import EllipticSolveError
from .initdata import DataSpec, build_sigma_data, compat_residuals
from .stepper import (
    CLASSICAL,
    KAPPA,
    SURFACE_TENSION,
    SolverConfig,
    StepDivergedError,
    advance,
    init_state,
    initial_time_derivatives,
)
from .analysis import (
    EnergyReport,
    Trajectory,
    energy_table,
    mixed_cnorm,
)
from . import _svg

STATUS_COMPLETED = "completed"
STATUS_TAYLOR = "taylor-flag"
STATUS_ABORTED = "aborted"
EXIT_CODES = {STATUS_COMPLETED: 0, STATUS_TAYLOR: 2}


# ---------------------------------------------------------------------------
# configuration


def default_config() -> dict:
    """Flat key/value defaults for the baseline desk-scale run."""
    return {
        "mode": "classical",
        "sigma": 0.0,
        "kappa": 0.0,
        "grid.nx": 64,
        "grid.ny": 129,
        "dt": 2.5e-5,
        "t_end": 0.05,
        "snapshot_every": 40,
        "data.alpha": 1.0,
        "data.eps_slab": 0.25,
        "data.blend_window": 0.55,
        "data.b_amplitude": 1.0,
        "data.b_mode": 1,
        "data.h0_amplitude": 0.0,
        "data.h0_mode": 1,
        "compat.require": True,
        "compat.override": False,
        "output.svg": True,
        "sweep.sigma_ladder": "0.1,0.01,0.001,0.0001,0",
        "sweep.kappa_ladder": "0.2,0.1,0.05,0.025",
        "sweep.workers": 1,
    }


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config_file(path) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        out[key.strip()] = _parse_value(raw)
    return out


def apply_overrides(settings: dict, overrides) -> dict:
    out = dict(settings)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must be key=value")
        key, _, raw = item.partition("=")
        out[key.strip()] = _parse_value(raw)
    return out


def build_config(settings: dict) -> SolverConfig:
    """Turn flat settings into a validated solver configuration."""
    merged = default_config()
    merged.update(settings)
    data = DataSpec(
        alpha=float(merged["data.alpha"]),
        eps_slab=float(merged["data.eps_slab"]),
        sigma=float(merged["sigma"]),
        b_amplitude=float(merged["data.b_amplitude"]),
        b_mode=int(merged["data.b_mode"]),
        h0_amplitude=float(merged["data.h0_amplitude"]),
        h0_mode=int(merged["data.h0_mode"]),
        blend_window=float(merged["data.blend_window"]),
    )
    return SolverConfig(
        mode=str(merged["mode"]),
        sigma=float(merged["sigma"]),
        kappa=float(merged["kappa"]),
        nx=int(merged["grid.nx"]),
        ny=int(merged["grid.ny"]),
        dt=float(merged["dt"]),
        t_end=float(merged["t_end"]),
        snapshot_every=int(merged["snapshot_every"]),
        data=data,
    )


def _ladder(settings: dict, key: str) -> list:
    raw = settings.get(key, default_config()[key])
    if isinstance(raw, (int, float)):
        return [float(raw)]
    return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]


# ---------------------------------------------------------------------------
# run records


@dataclass
class RunManifest:
    """What a run was and what it produced; written even on abort."""

    config: dict
    version: str
    mode: str
    sigma: float
    kappa: float
    grid: tuple
    status: str = STATUS_COMPLETED
    reason: str = ""
    wall_time: float = 0.0
    compat: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES.get(self.status, 3)

    def write(self, outdir: Path) -> Path:
        path = outdir / "manifest.json"
        if "manifest.json" not in self.artifacts:
            self.artifacts.append("manifest.json")
        payload = asdict(self)
        payload["exit_code"] = self.exit_code
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


@dataclass
class SweepResult:
    """Ladder outcomes: per-point energies, distances, and a fitted slope."""

    parameter: str
    values: list
    statuses: list
    final_energies: list
    distances: list
    fit_exponent: float
    monotone: bool
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "parameter": self.parameter,
            "values": self.values,
            "statuses": self.statuses,
            "final_energies": self.final_energies,
            "distances": self.distances,
            "fit_exponent": self.fit_exponent,
            "monotone": self.monotone,
            **self.extras,
        }


def _config_dict(config: SolverConfig) -> dict:
    out = asdict(config)
    out.pop("source_q", None)
    out.pop("source_h", None)
    return out


# ---------------------------------------------------------------------------
# single runs


def simulate(config: SolverConfig, q0=None, h0=None) -> Trajectory:
    """Run one simulation and return its trajectory (no file output).

    Snapshots are recorded every ``snapshot_every`` steps (including the
    initial and final instants).  A nonpositive stability margin flags the
    run and stops it after the configured grace steps; geometry loss or a
    diverged update aborts it.
    """
    state = init_state(config, q0=q0, h0=h0)
    cadence = config.snapshot_every
    n_steps = config.n_steps
    if n_steps % cadence != 0:
        raise ConfigurationError(
            f"snapshot_every={cadence} must divide the {n_steps} steps"
        )
    times = [0.0]
    snaps = [state.snapshot()]
    margins = [state.margin]
    dissipation = []
    initial = initial_time_derivatives(state, config)
    status = STATUS_COMPLETED
    reason = ""
    flagged_at = None
    try:
        for n in range(1, n_steps + 1):
            state = advance(state, config)
            if state.dissipation is not None:
                dissipation.append(state.dissipation)
            if n % cadence == 0:
                times.append(state.t)
                snaps.append(state.snapshot())
                margins.append(state.margin)
            if state.margin < 0.0:
                status = STATUS_TAYLOR
                if flagged_at is None:
                    flagged_at = n
                elif n - flagged_at >= config.taylor_grace_steps:
                    reason = (
                        f"stability margin nonpositive since step {flagged_at}"
                    )
                    break
            else:
                flagged_at = None
    except (DegenerateMapError, InvalidGeometryError, StepDivergedError) as exc:
        status = STATUS_ABORTED
        reason = f"{type(exc).__name__}: {exc}"
    return Trajectory(
        config=config,
        times=times,
        snaps=snaps,
        margins=margins,
        initial_derivatives=initial,
        dissipation=dissipation,
        status=status,
        flags=state.flags + ((reason,) if reason else ()),
    )


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_energy_csv(outdir: Path, reports) -> str:
    path = outdir / "energies.csv"
    _write_csv(path, EnergyReport.COLUMNS, [r.row() for r in reports])
    return path.name


def write_interface_csv(outdir: Path, traj: Trajectory, count: int = 5) -> list:
    names = []
    picks = sorted({0, len(traj) - 1,
                    *np.linspace(0, len(traj) - 1, count).astype(int).tolist()})
    xs = traj.grid.xs
    for idx in picks:
        t = traj.times[idx]
        name = f"interface_t{t:.6f}.csv"
        rows = [
            (format(x, ".17g"), format(hval, ".17g"))
            for x, hval in zip(xs, traj.snaps[idx]["h"])
        ]
        _write_csv(outdir / name, ("x", "h"), rows)
        names.append(name)
    return names


def _emit_plots(outdir: Path, traj: Trajectory, reports) -> list:
    ts = [r.t for r in reports]
    names = []
    _svg.line_plot(
        outdir / "energies.svg",
        [("energy", ts, [r.energy for r in reports]),
         ("natural", ts, [r.natural_energy for r in reports])],
        title="energy functionals", xlabel="t", ylabel="value",
    )
    names.append("energies.svg")
    _svg.line_plot(
        outdir / "margin.svg",
        [("margin", ts, [r.taylor_margin for r in reports])],
        title="stability margin", xlabel="t", ylabel="min flux",
    )
    names.append("margin.svg")
    xs = traj.grid.xs.tolist()
    picks = sorted({0, len(traj) // 2, len(traj) - 1})
    _svg.line_plot(
        outdir / "interface.svg",
        [(f"t={traj.times[i]:.4f}", xs, traj.snaps[i]["h"].tolist())
         for i in picks],
        title="interface profiles", xlabel="x", ylabel="h",
    )
    names.append("interface.svg")
    return names


def run_simulation(config: SolverConfig, outdir=None, settings=None,
                   q0=None, h0=None):
    """Full run with reporting; returns (trajectory, manifest).

    The compatibility of the configured data is checked first; failures
    stop the run with a config error unless the override flag is set
    (curved initial interfaces have no exactly compatible explicit datum).
    A numerical failure before the first step (geometry, elliptic solve)
    writes an aborted manifest and is re-raised.
    """
    settings = settings or {}
    require = settings.get("compat.require", True)
    override = settings.get("compat.override", False)
    t0 = time.time()
    manifest = RunManifest(
        config=_config_dict(config),
        version=__version__,
        mode=config.mode,
        sigma=config.sigma,
        kappa=config.kappa,
        grid=(config.nx, config.ny),
    )
    grid = config.grid
    try:
        if q0 is None and config.mode in (CLASSICAL, SURFACE_TENSION):
            probe_q, probe_h = _configured_data(config)
            report = compat_residuals(grid, probe_q, probe_h, sigma=config.sigma)
            manifest.compat = {
                "r_dirichlet": report.r_dirichlet,
                "r_second": report.r_second,
                "taylor_margin": report.taylor_margin,
                "neumann_top": report.neumann_top,
                "passed": report.passed,
            }
            if require and not report.passed and not override:
                raise ConfigurationError(
                    "initial data fails compatibility checks; set "
                    "compat.override to run anyway: " + report.summary()
                )
        traj = simulate(config, q0=q0, h0=h0)
    except (DegenerateMapError, InvalidGeometryError, EllipticSolveError) as exc:
        manifest.status = STATUS_ABORTED
        manifest.reason = f"{type(exc).__name__}: {exc}"
        manifest.wall_time = time.time() - t0
        if outdir is not None:
            outdir = Path(outdir)
            outdir.mkdir(parents=True, exist_ok=True)
            manifest.write(outdir)
        raise
    manifest.status = traj.status
    manifest.flags = list(traj.flags)
    if traj.status not in EXIT_CODES:
        manifest.reason = traj.flags[-1] if traj.flags else "aborted"
    reports = energy_table(traj)
    manifest.wall_time = time.time() - t0
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest.artifacts.append(write_energy_csv(outdir, reports))
        manifest.artifacts.extend(write_interface_csv(outdir, traj))
        if settings.get("output.svg", True):
            manifest.artifacts.extend(_emit_plots(outdir, traj, reports))
        manifest.write(outdir)
    return traj, manifest


def _configured_data(config: SolverConfig):
    from .initdata import build_classical_data

    if config.mode == SURFACE_TENSION:
        return build_sigma_data(
            config.grid, replace(config.data, sigma=config.sigma)
        )
    return build_classical_data(config.grid, config.data)


# ---------------------------------------------------------------------------
# sweeps


def _sigma_point(args):
    config, sigma = args
    if sigma > 0.0:
        cfg = replace(config, mode=SURFACE_TENSION, sigma=float(sigma))
    else:
        cfg = replace(config, mode=CLASSICAL, sigma=0.0)
    return simulate(cfg)


def sweep_sigma(config: SolverConfig, ladder=None, workers: int = 1) -> SweepResult:
    """Vanishing-surface-tension sweep against the zero-tension reference.

    Every ladder point runs the same horizon with the well-prepared data
    family; distances are trajectory max-norm distances to the reference.
    """
    ladder = [float(s) for s in (ladder or (0.1, 0.01, 0.001, 0.0001, 0.0))]
    if 0.0 not in ladder:
        raise ConfigurationError("the sigma ladder must include 0")
    jobs = [(config, s) for s in ladder]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trajs = list(pool.map(_sigma_point, jobs))
    else:
        trajs = [_sigma_point(j) for j in jobs]
    by_sigma = dict(zip(ladder, trajs))
    ref = by_sigma[0.0]
    distances = []
    energies = []
    statuses = []
    for s in ladder:
        tr = by_sigma[s]
        statuses.append(tr.status)
        energies.append(energy_table(tr)[-1].energy_sigma)
        distances.append(0.0 if s == 0.0 else mixed_cnorm(tr, ref))
    pos = [(s, d) for s, d in zip(ladder, distances) if s > 0 and d > 0]
    fit = _fit_loglog(pos)
    nonzero = [d for s, d in zip(ladder, distances) if s > 0]
    monotone = all(a >= b - 1e-15 for a, b in zip(nonzero, nonzero[1:]))
    same_horizon = all(st == STATUS_COMPLETED for st in statuses)
    return SweepResult(
        parameter="sigma",
        values=ladder,
        statuses=statuses,
        final_energies=energies,
        distances=distances,
        fit_exponent=fit,
        monotone=monotone,
        extras={"same_horizon": same_horizon},
    )


def _kappa_point(args):
    config, kappa = args
    cfg = replace(config, mode=KAPPA, kappa=float(kappa), sigma=0.0)
    traj = simulate(cfg)
    table = energy_table(traj)
    sup_e = max(r.energy_kappa for r in table)
    robin = max(float(np.max(np.abs(s["q"][:, 0]))) for s in traj.snaps)
    ratios = [r.norm_energy_ratio for r in table[1:]
              if r.norm_energy_ratio == r.norm_energy_ratio]
    return traj, {
        "energy0": table[0].energy_kappa,
        "sup_energy": sup_e,
        "robin_trace": robin,
        "ratio_range": (min(ratios), max(ratios)) if ratios else (float("nan"),) * 2,
        "energy_le_energy_kappa": all(
            r.energy <= r.energy_kappa * (1 + 1e-12) for r in table
        ),
        # a-priori monitor: the reduced-order functional stays under the
        # initial full energy plus one
        "lower_order_bounded": all(
            r.lower_order <= table[0].energy_kappa + 1.0 for r in table
        ),
    }


def sweep_kappa(config: SolverConfig, ladder=None, workers: int = 1) -> SweepResult:
    """Smoothing-width sweep: uniform energy bounds and the limit behavior."""
    ladder = [float(k) for k in (ladder or (0.2, 0.1, 0.05, 0.025))]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigurationError("the kappa ladder must be strictly decreasing")
    jobs = [(config, k) for k in ladder]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_kappa_point, jobs))
    else:
        results = [_kappa_point(j) for j in jobs]
    trajs = [r[0] for r in results]
    stats = [r[1] for r in results]
    distances = [
        mixed_cnorm(trajs[i], trajs[i + 1]) for i in range(len(trajs) - 1)
    ]
    robins = [(k, s["robin_trace"]) for k, s in zip(ladder, stats)]
    fit = _fit_loglog([(k, r) for k, r in robins if r > 0])
    bounded = [s["sup_energy"] <= 3.0 * s["energy0"] for s in stats]
    ratios = [s["ratio_range"] for s in stats]
    return SweepResult(
        parameter="kappa",
        values=ladder,
        statuses=[t.status for t in trajs],
        final_energies=[s["sup_energy"] for s in stats],
        distances=distances,
        fit_exponent=fit,
        monotone=all(a >= b - 1e-15 for a, b in zip(distances, distances[1:])),
        extras={
            "energy0": [s["energy0"] for s in stats],
            "uniform_bound": bounded,
            "robin_traces": [r for _, r in robins],
            "ratio_ranges": ratios,
            "order_ok": [s["energy_le_energy_kappa"] for s in stats],
            "lower_order_bounded": [s["lower_order_bounded"] for s in stats],
        },
    )


def _fit_loglog(pairs) -> float:
    if len(pairs) < 2:
        return float("nan")
    xs = np.log([p for p, _ in pairs])
    ys = np.log([d for _, d in pairs])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def write_sweep(outdir, result: SweepResult) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"sweep_{result.parameter}.json"
    path.write_text(json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# manufactured-solution convergence


class ManufacturedCase:
    """A manufactured (temperature, height) pair with matching sources.

    The fields satisfy the interface and top-wall conditions exactly, so
    the pinned-temperature scheme needs no boundary sources; the interior
    and height sources are evaluated on a refined grid and restricted to
    the run grid.
    """

    def __init__(self, grid: Grid, flat: bool = True, amp: float = 0.05,
                 rate: float = 40.0):
        self.grid = grid
        self.flat = flat
        self.amp = amp
        self.rate = rate
        self.fine = grid.refined()
        self._flat_cache = None

    # the vertical factor vanishes at the interface and has zero slope at
    # the top wall; the flat case uses the quadratic the stencils reproduce
    # exactly (isolating the time error), the curved case a sine with
    # genuine fourth-derivative content (isolating the space error)
    def _profile(self, grid: Grid):
        x, y = grid.mesh()
        vert = (y - 0.5 * y * y) if self.flat else np.sin(0.5 * np.pi * y)
        return vert * (1.0 + 0.5 * np.cos(x))

    def _tfac(self, t: float) -> float:
        return 1.0 + 0.5 * np.sin(self.rate * t)

    def _dtfac(self, t: float) -> float:
        return 0.5 * self.rate * np.cos(self.rate * t)

    def temperature(self, grid: Grid, t: float):
        return self.amp * self._tfac(t) * self._profile(grid)

    def height(self, grid: Grid, t: float):
        if self.flat:
            return np.zeros(grid.nx)
        return 0.02 * (1.0 + 0.5 * np.sin(self.rate * t)) * np.cos(grid.xs)

    def height_rate_exact(self, grid: Grid, t: float):
        if self.flat:
            return np.zeros(grid.nx)
        return 0.01 * self.rate * np.cos(self.rate * t) * np.cos(grid.xs)

    def _restrict(self, fine_field):
        return fine_field[::2, ::2].copy()

    def source_q(self, t: float):
        from .geometry import harmonic_extend, identity_bundle, metric_bundle
        from .operators import compute_velocity, transformed_laplacian_expanded
        from .stepper import _extend_edge_scalar

        fine = self.fine
        if self.flat:
            # separable fields: cache the profile and its flat Laplacian once
            if self._flat_cache is None:
                prof = self._profile(fine)
                lap = transformed_laplacian_expanded(
                    fine, identity_bundle(fine), prof
                )
                self._flat_cache = (self._restrict(prof), self._restrict(lap))
            prof, lap = self._flat_cache
            return self.amp * (self._dtfac(t) * prof - self._tfac(t) * lap)
        q = self.temperature(fine, t)
        qt = self.amp * self._dtfac(t) * self._profile(fine)
        h = self.height(fine, t)
        bundle = metric_bundle(fine, harmonic_extend(fine, h))
        v = compute_velocity(fine, bundle, q)
        w = _extend_edge_scalar(fine, self.height_rate_exact(fine, t))
        lap = transformed_laplacian_expanded(fine, bundle, q)
        src = qt - lap + v[1] * w[1]
        return self._restrict(src)

    def source_h(self, t: float):
        from .geometry import harmonic_extend, metric_bundle
        from .operators import compute_velocity
        from .stepper import height_rate

        fine = self.fine
        q = self.temperature(fine, t)
        h = self.height(fine, t)
        bundle = metric_bundle(fine, harmonic_extend(fine, h))
        v = compute_velocity(fine, bundle, q)
        rate = height_rate(bundle, v)
        return (self.height_rate_exact(fine, t) - rate)[::2]

    def run_error(self, nx: int, ny: int, dt: float, t_end: float) -> float:
        """Final-time interior L^2 error of the scheme against the fields."""
        case = ManufacturedCase(Grid(nx, ny), flat=self.flat, amp=self.amp,
                                rate=self.rate)
        cfg = SolverConfig(
            mode=CLASSICAL, nx=nx, ny=ny, dt=dt, t_end=t_end,
            snapshot_every=max(1, round(t_end / dt)),
            source_q=case.source_q, source_h=case.source_h,
            track_dissipation=False,
        )
        grid = cfg.grid
        q0 = case.temperature(grid, 0.0)
        h0 = case.height(grid, 0.0)
        state = init_state(cfg, q0=q0, h0=h0)
        for _ in range(cfg.n_steps):
            state = advance(state, cfg)
        dq = state.q - case.temperature(grid, cfg.t_end)
        from .numerics import integrate_interior

        return float(np.sqrt(integrate_interior(dq * dq, grid)))


def mms_convergence(spatial_levels=((16, 33), (32, 65), (64, 129)),
                    dt_spatial: float = 2.0e-6,
                    t_end_spatial: float = 1.0e-3,
                    dts_temporal=(2.0e-5, 1.0e-5, 5.0e-6),
                    grid_temporal=(64, 129),
                    t_end_temporal: float = 2.0e-2) -> dict:
    """Manufactured-solution convergence study.

    Spatial: curved-interface case at a time step small enough that the
    first-order splitting error is negligible.  Temporal: flat-geometry
    case whose fields the spatial stencils reproduce exactly, isolating
    the order-one time error.
    """
    spatial_case = ManufacturedCase(Grid(*spatial_levels[-1]), flat=False)
    spatial_errors = []
    for nx, ny in spatial_levels:
        spatial_errors.append(spatial_case.run_error(nx, ny, dt_spatial, t_end_spatial))
    s_ratios = [a / b for a, b in zip(spatial_errors, spatial_errors[1:])]
    s_order = float(np.log2(np.mean(s_ratios))) if s_ratios else float("nan")

    temporal_case = ManufacturedCase(Grid(*grid_temporal), flat=True)
    temporal_errors = [
        temporal_case.run_error(*grid_temporal, dtv, t_end_temporal)
        for dtv in dts_temporal
    ]
    t_ratios = [a / b for a, b in zip(temporal_errors, temporal_errors[1:])]
    t_order = float(np.log2(np.mean(t_ratios))) if t_ratios else float("nan")

    return {
        "spatial_levels": [list(lv) for lv in spatial_levels],
        "spatial_errors": spatial_errors,
        "spatial_ratios": s_ratios,
        "spatial_order": s_order,
        "temporal_dts": list(dts_temporal),
        "temporal_errors": temporal_errors,
        "temporal_ratios": t_ratios,
        "temporal_order": t_order,
        "spatial_pass": bool(s_ratios and min(s_ratios) >= 3.6),
        "temporal_pass": bool(t_ratios and min(t_ratios) >= 1.8),
    }
