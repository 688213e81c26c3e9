"""Run orchestration: single runs, parameter sweeps, convergence studies.

The harness owns configuration parsing, trajectory recording, and all file
output: ``manifest.json`` (run metadata, always written, even on abort),
``energies.csv`` (one report row per snapshot, stable column order),
``interface_t*.csv`` (edge profiles at selected times), and optional SVG
line plots.  Runs are deterministic: identical configurations produce
byte-identical CSV files.

Config files are flat key = value text; dotted keys address nested fields
(``data.alpha = 1.0``), and the same syntax is accepted by the CLI's
override flag.  Each default has one home: ``default_config()`` takes the
solver and data keys from the numeric fields of ``SolverConfig`` and
``DataSpec`` and the run and sweep settings from ``RUN_SETTINGS``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Real
from pathlib import Path

import numpy as np

from . import __version__
from .numerics import ConfigurationError, Grid, NumericsError, integrate_interior
from .geometry import (
    DegenerateMapError,
    InvalidGeometryError,
    check_graph_condition,
    harmonic_drift,
    inverse_gradient,
)
from .initdata import DataSpec, build_sigma_data, compat_residuals, taylor_margin
from .operators import deviation_from_derivatives, velocity_from_derivatives
from .stepper import (
    CLASSICAL,
    KAPPA,
    SolverConfig,
    StepDivergedError,
    advance,
    init_state,
    initial_time_derivatives,
)
from .analysis import (
    EnergyReport,
    Trajectory,
    dissipation_defect,
    energy_table,
    heat_content,
    mixed_cnorm,
)
from . import _svg

STATUS_COMPLETED = "completed"
STATUS_TAYLOR = "taylor-flag"
STATUS_ABORTED = "aborted"
STATUS_CONFIG = "config-error"
#: process exit codes; a failed data check or sweep verdict is "flagged"
EXIT_OK = 0
EXIT_FLAGGED = 2
EXIT_ABORTED = 3
EXIT_CONFIG = 4
EXIT_CODES = {STATUS_COMPLETED: EXIT_OK, STATUS_TAYLOR: EXIT_FLAGGED,
              STATUS_ABORTED: EXIT_ABORTED, STATUS_CONFIG: EXIT_CONFIG}
#: steps a run may continue with a nonpositive stability margin
TAYLOR_GRACE_STEPS = 10
#: bound on sup|h| + sup|h'| above which a run is flagged "smallness"
SMALLNESS = 0.3
#: interface profiles a run writes, evenly spaced over its snapshots
INTERFACE_PROFILES = 5
#: angular frequency of the manufactured time factor T = 1 + sin(rate t) / 2
MMS_RATE = 40.0


# ---------------------------------------------------------------------------
# configuration


#: settings of the run and the sweeps, beside the solver and data fields
RUN_SETTINGS = {
    "compat.override": False,
    "output.svg": True,
    "sweep.sigma_ladder": "0.1,0.01,0.001,0.0001,0",
    "sweep.kappa_ladder": "0.2,0.1,0.05,0.025",
}


def _numeric_fields(cls, prefix: str = "") -> list:
    """(settings key, field name, default) of each field with a number default."""
    return [(prefix + {"nx": "grid.nx", "ny": "grid.ny"}.get(f.name, f.name),
             f.name, f.default)
            for f in fields(cls) if isinstance(f.default, (int, float))]


_SOLVER_FIELDS = _numeric_fields(SolverConfig)
_DATA_FIELDS = _numeric_fields(DataSpec, "data.")


def default_config() -> dict:
    """Flat key/value defaults: the numeric fields, then ``RUN_SETTINGS``."""
    numeric = {key: default for key, _, default in _SOLVER_FIELDS + _DATA_FIELDS}
    return numeric | RUN_SETTINGS


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
    """``key = value`` lines; a ``#`` starts a comment, inline ones too."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
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


def _completed(settings: dict) -> dict:
    """``default_config()`` updated by ``settings``, once they are checked.

    Keys outside the defaults and values of the wrong type are rejected: a
    misspelt key would leave its default in force without notice; a
    boolean key takes true or false (``flase`` would pass as truthy), an
    integer key an integral number (64.5 would be truncated to 64).
    """
    defaults = default_config()
    unknown = sorted(set(settings) - set(defaults))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in settings.items():
        default = defaults[key]
        if isinstance(default, bool):
            wanted, ok = "true or false", isinstance(value, bool)
        elif isinstance(default, (int, float)):
            integral = isinstance(default, int)
            wanted = "an integer" if integral else "a number"
            ok = (isinstance(value, Real) and not isinstance(value, bool)
                  and (not integral or float(value).is_integer()))
        else:
            continue
        if not ok:
            raise ConfigurationError(
                f"config key {key} needs {wanted}, got {value!r}")
    return defaults | settings


def build_config(settings: dict) -> SolverConfig:
    """Turn flat settings, checked by ``_completed``, into a config; each
    value is cast to its default's type (64.0 to 64 for an integer field)."""
    merged = _completed(settings)
    data, solver = (
        {name: type(default)(merged[key]) for key, name, default in spec}
        for spec in (_DATA_FIELDS, _SOLVER_FIELDS))
    return SolverConfig(data=DataSpec(**data), **solver)


def _ladder(raw, key: str) -> list:
    """The ladder of sweep ``key`` as floats: ``raw`` is None (the default
    ladder), a comma-separated string, a number or a sequence of numbers.

    An empty ladder is an error, not a request for the default.
    """
    if raw is None:
        raw = RUN_SETTINGS[key]
    if isinstance(raw, str):
        entries = [tok for tok in raw.split(",") if tok.strip()]
    else:
        entries = [raw] if isinstance(raw, Real) else list(raw)
    bad = ConfigurationError(
        f"config key {key} needs comma-separated numbers, got {raw!r}")
    if any(isinstance(v, bool) for v in entries):
        raise bad
    try:
        values = [float(v) for v in entries]
    except (TypeError, ValueError):
        raise bad from None
    if not values:
        raise ConfigurationError(f"{key} is empty: a sweep needs a ladder")
    return values


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
    #: per solve of a kappa run's regularized datum: iterations and residual
    datum_solves: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

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
        out = asdict(self)
        out.update(out.pop("extras"))
        return out


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
    initial and final instants) with their stability margins, and in
    unforced classical runs the dissipation defect after every step.  A
    negative margin flags the run ``taylor`` and stops it after
    ``TAYLOR_GRACE_STEPS`` steps, sup|h| + sup|h'| > ``SMALLNESS`` flags it
    ``smallness``; geometry loss or a diverged update aborts it.  A kappa
    run records the solves of its regularized datum (``datum_solves``).
    """
    cadence = config.snapshot_every
    n_steps = config.n_steps
    if n_steps % cadence != 0:
        raise ConfigurationError(
            f"snapshot_every={cadence} must divide the {n_steps} steps"
        )
    state = init_state(config, q0=q0, h0=h0)
    datum_solves = list(state.datum_solves)
    times = [0.0]
    snaps = [state.snapshot()]
    margins = [taylor_margin(config.grid, state.q)]
    dissipation = []
    monitor = config.mode == CLASSICAL and config.source_q is None
    heat = heat_content(config.grid, state) if monitor else None
    initial = initial_time_derivatives(state, config)
    status = STATUS_COMPLETED
    reason = ""
    flags = []
    flagged_at = None
    try:
        for n in range(1, n_steps + 1):
            state = advance(state, config)
            margin = taylor_margin(config.grid, state.q)
            if monitor:
                heat_old, heat = heat, heat_content(config.grid, state)
                dissipation.append(dissipation_defect(
                    config.grid, heat_old, heat, state, config.dt))
            if n % cadence == 0:
                times.append(state.t)
                snaps.append(state.snapshot())
                margins.append(margin)
            # strictly negative: the all-zero rest state sits exactly at zero
            # and is a legitimate (if degenerate) complete run
            if margin < 0.0:
                status = STATUS_TAYLOR
                if "taylor" not in flags:
                    flags.append("taylor")
                if flagged_at is None:
                    flagged_at = n
                elif n - flagged_at >= TAYLOR_GRACE_STEPS:
                    reason = f"stability margin nonpositive since step {flagged_at}"
            else:
                flagged_at = None
            if "smallness" not in flags and (
                    np.max(np.abs(state.h)) + np.max(np.abs(state.dheight)) > SMALLNESS):
                flags.append("smallness")
            if reason:
                break
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
        flags=tuple(flags) + ((reason,) if reason else ()),
        datum_solves=datum_solves,
    )


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_energy_csv(outdir: Path, reports) -> str:
    path = outdir / "energies.csv"
    _write_csv(path, EnergyReport.COLUMNS, [r.row() for r in reports])
    return path.name


def write_interface_csv(outdir: Path, traj: Trajectory) -> list:
    """One ``interface_t<t>.csv`` per picked snapshot; t has the fewest
    decimals, at least 6, that keep the picked times' names distinct."""
    picks = sorted(set(
        np.linspace(0, len(traj) - 1, INTERFACE_PROFILES).astype(int).tolist()))
    times = [traj.times[idx] for idx in picks]
    digits = 6
    while len({f"{t:.{digits}f}" for t in times}) < len(set(times)):
        digits += 1
    names = []
    xs = traj.grid.xs
    for idx, t in zip(picks, times):
        name = f"interface_t{t:.{digits}f}.csv"
        rows = [
            (format(x, ".17g"), format(hval, ".17g"))
            for x, hval in zip(xs, traj.snaps[idx].h)
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
        [(f"t={traj.times[i]:.4f}", xs, traj.snaps[i].h.tolist())
         for i in picks],
        title="interface profiles", xlabel="x", ylabel="h",
    )
    names.append("interface.svg")
    return names


def run_simulation(config: SolverConfig, outdir=None, settings=None):
    """Full run with reporting; returns (trajectory, manifest).

    The compatibility of the configured data is checked first, on the
    datum the run then starts from; failures stop the run with a config
    error unless the override flag is set (curved initial interfaces have
    no exactly compatible explicit datum).  ``settings`` are checked as in
    ``build_config``.
    Any exception that ``simulate`` does not record as an aborted
    trajectory writes a manifest and is re-raised: a configuration error
    (the compatibility gate, the cadence) a config-error one, a numerical
    failure (data construction, init-time geometry, an elliptic solve, the
    energy table) an aborted one, and any other exception an aborted one
    whose reason names the phase that raised it.
    """
    settings = _completed(settings or {})
    t0 = time.perf_counter()
    manifest = RunManifest(
        config=_config_dict(config),
        version=__version__,
        mode=config.mode,
        sigma=config.sigma,
        kappa=config.kappa,
        grid=(config.nx, config.ny),
    )
    grid = config.grid
    q0 = h0 = None
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    phase = "data check"
    try:
        if config.mode != KAPPA:
            q0, h0 = build_sigma_data(grid, config.data, config.sigma)
            report = compat_residuals(grid, q0, h0, sigma=config.sigma)
            manifest.compat = {
                "r_dirichlet": report.r_dirichlet,
                "r_second": report.r_second,
                "taylor_margin": report.taylor_margin,
                "neumann_top": report.neumann_top,
                "passed": report.passed,
            }
            if not report.passed and not settings["compat.override"]:
                raise ConfigurationError(
                    "initial data fails compatibility checks; set "
                    "compat.override to run anyway: " + report.summary()
                )
        phase = "simulate"
        traj = simulate(config, q0=q0, h0=h0)
        manifest.flags = list(traj.flags)
        manifest.datum_solves = traj.datum_solves
        phase = "energy table"
        reports = energy_table(traj)
        manifest.status = traj.status
        if traj.status == STATUS_ABORTED:
            manifest.reason = traj.flags[-1] if traj.flags else "aborted"
        manifest.wall_time = time.perf_counter() - t0
        if outdir is not None:
            phase = "output"
            manifest.artifacts.append(write_energy_csv(outdir, reports))
            manifest.artifacts.extend(write_interface_csv(outdir, traj))
            if settings["output.svg"]:
                manifest.artifacts.extend(_emit_plots(outdir, traj, reports))
    except Exception as exc:
        # the boundary of a run: every failure leaves a manifest
        manifest.status = (STATUS_CONFIG if isinstance(exc, ConfigurationError)
                           else STATUS_ABORTED)
        where = "" if isinstance(exc, NumericsError) else f" in {phase}"
        manifest.reason = f"{type(exc).__name__}{where}: {exc}"
        manifest.wall_time = time.perf_counter() - t0
        if outdir is not None:
            manifest.write(outdir)
        raise
    if outdir is not None:
        manifest.write(outdir)
    return traj, manifest


# ---------------------------------------------------------------------------
# sweeps


def sweep_sigma(config: SolverConfig, ladder=None) -> SweepResult:
    """Vanishing-surface-tension sweep against the zero-tension reference.

    Every ladder point runs the same horizon from the one data family, so
    the reference is its sigma = 0 member on the same initial interface;
    distances are trajectory max-norm distances to the reference.
    """
    ladder = _ladder(ladder, "sweep.sigma_ladder")
    if not all(0.0 <= s < np.inf for s in ladder):
        raise ConfigurationError(
            f"sigma ladder entries must be >= 0 and finite, got {ladder}")
    if 0.0 not in ladder:
        raise ConfigurationError("the sigma ladder must include 0")
    trajs = [simulate(replace(config, sigma=s, kappa=0.0)) for s in ladder]
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
    # by decreasing sigma: the ladder's order is free
    nonzero = [d for s, d in sorted(zip(ladder, distances), reverse=True) if s > 0]
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


def _kappa_point(config: SolverConfig, kappa: float):
    traj = simulate(replace(config, kappa=kappa, sigma=0.0))
    table = energy_table(traj)
    sup_e = max(r.energy_kappa for r in table)
    robin = max(float(np.max(np.abs(s.q[:, 0]))) for s in traj.snaps)
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


def sweep_kappa(config: SolverConfig, ladder=None) -> SweepResult:
    """Smoothing-width sweep: uniform energy bounds and the limit behavior."""
    ladder = _ladder(ladder, "sweep.kappa_ladder")
    # kappa = 0 is the classical law, not a smoothing width
    if not all(0.0 < k < np.inf for k in ladder):
        raise ConfigurationError(
            f"kappa ladder entries must be > 0 and finite, got {ladder}")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigurationError("the kappa ladder must be strictly decreasing")
    results = [_kappa_point(config, k) for k in ladder]
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
    the pinned-temperature scheme needs no boundary sources.  The interior
    and height sources are the exact residuals of the fields, evaluated in
    closed form at the run-grid nodes.

    Both fields are separable in t: q = amp T(t) P(x, y) with
    P = vert(y) (1 + cos(x) / 2), and h = S(t) cos x.  The harmonic
    extension is linear, so the map offset is S(t) E and the map velocity
    R(t) E, with E = cos x sinh(1 - y) / sinh 1 and R = S'.

    Built once (``_separable_factors``): P, P_x, P_y, P_yy, P_xy, the flat
    Laplacian P_xx + P_yy, and E_x, E_y, E_xy and E (= E_yy).  Per time
    level, pointwise arithmetic only: J, a and c of the map and its drift
    (``geometry.inverse_gradient``, ``geometry.harmonic_drift``), then the
    velocity, the gauge deviation (none when S = 0) and the sources.
    """

    def __init__(self, grid: Grid, flat: bool = True, amp: float = 0.05):
        self.grid = grid
        self.flat = flat
        self.amp = amp
        # the time-independent factors of the sources, built on first use
        self._factors = None
        # (t, source_q, source_h) of the last level: the stepper asks for
        # source_q(t) in one step and source_h(t) in the next
        self._level = None

    # the vertical factor vanishes at the interface and has zero slope at
    # the top wall; the flat case uses the quadratic the stencils reproduce
    # exactly (isolating the time error), the curved case a sine with
    # genuine fourth-derivative content (isolating the space error)
    def _vertical(self, y):
        """vert(y) and its first two derivatives."""
        if self.flat:
            return y - 0.5 * y * y, 1.0 - y, np.full_like(y, -1.0)
        k = 0.5 * np.pi
        return np.sin(k * y), k * np.cos(k * y), -k * k * np.sin(k * y)

    def _profile(self, grid: Grid):
        x, y = grid.mesh()
        return self._vertical(y)[0] * (1.0 + 0.5 * np.cos(x))

    def _tfac(self, t: float) -> float:
        return 1.0 + 0.5 * np.sin(MMS_RATE * t)

    def _dtfac(self, t: float) -> float:
        return 0.5 * MMS_RATE * np.cos(MMS_RATE * t)

    def _hfac(self, t: float) -> float:
        """S(t) with h = S(t) cos x."""
        return 0.0 if self.flat else 0.02 * self._tfac(t)

    def _dhfac(self, t: float) -> float:
        """R(t) = S'(t)."""
        return 0.0 if self.flat else 0.01 * MMS_RATE * np.cos(MMS_RATE * t)

    def temperature(self, grid: Grid, t: float):
        return self.amp * self._tfac(t) * self._profile(grid)

    def height(self, grid: Grid, t: float):
        if self.flat:
            return np.zeros(grid.nx)
        return self._hfac(t) * np.cos(grid.xs)

    def height_rate_exact(self, grid: Grid, t: float):
        if self.flat:
            return np.zeros(grid.nx)
        return self._dhfac(t) * np.cos(grid.xs)

    def _separable_factors(self):
        if self._factors is None:
            x, y = self.grid.mesh()
            vert, dvert, d2vert = self._vertical(y)
            horiz, dhoriz = 1.0 + 0.5 * np.cos(x), -0.5 * np.sin(x)
            prof = vert * horiz
            lap_flat = vert * (-0.5 * np.cos(x)) + d2vert * horiz
            decay = np.sinh(1.0 - y) / np.sinh(1.0)
            ddecay = -np.cosh(1.0 - y) / np.sinh(1.0)
            ext = np.cos(x) * decay
            self._factors = (
                prof, lap_flat, vert * dhoriz, dvert * horiz, d2vert * horiz,
                dvert * dhoriz, ext, -np.sin(x) * decay, np.cos(x) * ddecay,
                -np.sin(x) * ddecay,
            )
        return self._factors

    def _sources(self, t: float):
        """(source_q, source_h) at time t, cached for one level."""
        if self._level is not None and self._level[0] == t:
            return self._level[1:]
        prof, lap_flat, px, py, pyy, pxy, ext, ext_x, ext_y, ext_xy = \
            self._separable_factors()
        hfac = self._hfac(t)
        if hfac:
            check_graph_condition(self.height(self.grid, t))
            jac = 1.0 + hfac * ext_y
            a, c = ac = inverse_gradient(hfac * ext_x, jac)
            drift = harmonic_drift(ac, jac, hfac * ext_xy, hfac * ext)
            lap = lap_flat + deviation_from_derivatives(a, c, drift, py, pyy,
                                                        pxy)
        else:
            # the identity map: a = 0, c = 1 and no gauge deviation
            a, c, lap = 0.0, 1.0, lap_flat
        scale = self.amp * self._tfac(t)
        v = scale * velocity_from_derivatives(a, c, px, py)
        w = self._dhfac(t) * ext
        src_q = self.amp * self._dtfac(t) * prof - scale * lap + v[1] * w
        # height law h_t = g (v . n) = v0 h' - v1 on the interface row
        dheight = hfac * ext_x[:, 0]
        src_h = (self.height_rate_exact(self.grid, t)
                 - (v[0, :, 0] * dheight - v[1, :, 0]))
        self._level = (t, src_q, src_h)
        return self._level[1:]

    def source_q(self, t: float):
        return self._sources(t)[0].copy()

    def source_h(self, t: float):
        return self._sources(t)[1].copy()

    def run_error(self, nx: int, ny: int, dt: float, t_end: float) -> float:
        """Final-time interior L^2 error of the scheme against the fields.

        One ``simulate`` run, snapshots at the ends only, on the case's own
        grid, which (nx, ny) must name; a run that does not complete raises."""
        grid = self.grid
        if (nx, ny) != (grid.nx, grid.ny):
            raise ConfigurationError(f"run_error({nx}, {ny}) on a {grid} case")
        cfg = SolverConfig(nx=nx, ny=ny, dt=dt, t_end=t_end,
                           snapshot_every=max(1, round(t_end / dt)),
                           source_q=self.source_q, source_h=self.source_h)
        traj = simulate(cfg, self.temperature(grid, 0.0), self.height(grid, 0.0))
        if traj.status != STATUS_COMPLETED:
            raise NumericsError(f"MMS run {traj.status}: {'; '.join(traj.flags)}")
        dq = traj.snaps[-1].q - self.temperature(grid, t_end)
        return float(np.sqrt(integrate_interior(dq * dq, grid)))


#: the manufactured-solution study of ``mms_convergence``
MMS_STUDY = {
    "spatial_levels": ((16, 33), (32, 65), (64, 129)),
    "dt_spatial": 2.0e-6,
    "t_end_spatial": 1.0e-3,
    "dts_temporal": (2.0e-5, 1.0e-5, 5.0e-6),
    "grid_temporal": (64, 129),
    "t_end_temporal": 2.0e-2,
}


def mms_convergence() -> dict:
    """Manufactured-solution convergence study over ``MMS_STUDY``.

    Spatial: curved-interface case at a time step small enough that the
    first-order splitting error is negligible.  Temporal: flat-geometry
    case whose fields the spatial stencils reproduce exactly, isolating
    the order-one time error.  Each of the six runs is one ``simulate``
    call on a case of its own (``ManufacturedCase.run_error``).
    """
    study = MMS_STUDY
    levels, grid_t = study["spatial_levels"], study["grid_temporal"]

    def run(shape, flat, dt, t_end):
        case = ManufacturedCase(Grid(*shape), flat=flat)
        return case.run_error(*shape, dt, t_end)

    spatial_errors = [run(lv, False, study["dt_spatial"], study["t_end_spatial"])
                      for lv in levels]
    s_ratios = [a / b for a, b in zip(spatial_errors, spatial_errors[1:])]
    temporal_errors = [run(grid_t, True, dt, study["t_end_temporal"])
                       for dt in study["dts_temporal"]]
    t_ratios = [a / b for a, b in zip(temporal_errors, temporal_errors[1:])]

    return {
        "spatial_levels": [list(lv) for lv in levels],
        "spatial_errors": spatial_errors,
        "spatial_ratios": s_ratios,
        "spatial_order": float(np.log2(np.mean(s_ratios))),
        "temporal_dts": list(study["dts_temporal"]),
        "temporal_errors": temporal_errors,
        "temporal_ratios": t_ratios,
        "temporal_order": float(np.log2(np.mean(t_ratios))),
        "spatial_pass": min(s_ratios) >= 3.6,
        "temporal_pass": min(t_ratios) >= 1.8,
    }
