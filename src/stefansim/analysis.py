"""Energy functionals and diagnostic identities over stored trajectories.

A trajectory is a uniformly spaced sequence of state snapshots plus the
equation-substituted time derivatives at the initial instant.  The energy
table is built in one pass: instantaneous squared norms feed running
maxima (the C^0-in-time terms) and trapezoid accumulators (the
L^2-in-time terms), and each snapshot emits one report row.

Time derivatives at the initial instant come from equation substitution;
at later snapshots from second-order finite differences over the stored
snapshots.  The interface speed is differentiated as its own stored
series, so no stored field needs more than two time derivatives.
Interior Sobolev norms, the velocity families included, come from
discrete Parseval in x (``numerics.mixed_squares``): one x-transform per
field, the y-stencils applied to its modes, the trapezoid rule in y.  The
transform of each time order of q also gives its gauge-combination
x-derivatives.
Those above third order in y compose first/second difference stencils,
and rows embedding them carry a lower-confidence flag.  Each edge field,
the height and the interface speed, stacks its three time orders into
one transform, raw and layer-smoothed: one product of the squared modes
with the (1 + k^2)^s table gives every squared H^s norm
(``numerics.edge_squares``), and one of the squared x-derivative ladder
(``numerics.x_derivatives``) with the edge weights 1, 1/J, 1/J^2, g^-3/J
and q_y/J every weighted family.

A snapshot (``stepper.Snapshot``) keeps q and h whole, and the map offset
phi and the map velocity w by their edge rows only: both are harmonic
extensions of those rows.  The gauge combinations take phi and its time
derivatives from the extension modes of the edge series
(``geometry._extension_modes``), so no interior map field is stored or
transformed here.  The velocity is not stored either.  A table pass
reads the trajectory through one ``_Window``: it rebuilds each snapshot's
metric bundle from ``phi_edge`` once, derives v from q on it, and keeps v,
the bundle's edge rows, the gauge curl of v and the interface flux q_y for
the last four snapshots (the most one time stencil reads); the interior
map fields are dropped at once.  A row's norms and identities share those
rows, a row reads each time derivative of q and v once, and nothing is
left on the snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numerics import (
    Grid,
    NeedsMoreStepsError,
    NumericsError,
    TWO_PI,
    edge_derivative,
    edge_squares,
    integrate_interior,
    mixed_squares,
    tangential_derivative,
    time_derivative,
    vertical_derivative,
    x_derivatives,
)
from .geometry import _extension_modes, metric_bundle
from .mollifier import _layer_symbol
from .operators import curl_residual
from .stepper import SolverConfig, height_rate


class UsageError(NumericsError):
    """The diagnostic was applied to an unsuitable trajectory or pair."""


def _orders_leq(n: int):
    return [(a, b) for b in range(n // 2 + 1) for a in range(n - 2 * b + 1)]


def _orders_eq(n: int):
    return [(n - 2 * b, b) for b in range(n // 2 + 1)]


@dataclass
class Trajectory:
    """Snapshots of one run at uniform cadence, plus run-level records.

    A snapshot (``stepper.Snapshot``) stores q and h whole and the edge rows
    ``phi_edge`` and ``w_edge`` of the map and its velocity, which are their
    harmonic extensions; ``snap.velocity()`` derives the velocity from q on
    the map rebuilt from ``phi_edge``.
    """

    config: SolverConfig
    times: list
    snaps: list
    margins: list
    initial_derivatives: dict
    dissipation: list = field(default_factory=list)
    status: str = "completed"
    flags: tuple = ()
    #: iterations and residual of each solve of the regularized datum
    datum_solves: list = field(default_factory=list)

    @property
    def grid(self) -> Grid:
        return self.config.grid

    def __len__(self) -> int:
        return len(self.times)


#: the most snapshots one time stencil reads (``numerics.time_derivative``)
_STENCIL = 4


class _RowMap(NamedTuple):
    """What a table row reads of a snapshot's map: the bundle's edge rows,
    the gauge curl of the velocity on it and the interface flux q_y."""

    height: np.ndarray
    dheight: np.ndarray
    line_el: np.ndarray
    jac_edge: np.ndarray
    curl: float
    q_y: np.ndarray


_INITIAL_KEYS = {("q", 1): "q_t", ("q", 2): "q_tt", ("h", 1): "h_t",
                 ("h", 2): "h_tt", ("v", 1): "v_t", ("w_edge", 1): "w_t",
                 ("rate", 1): "h_tt"}


class _Window:
    """What a table pass reads of a trajectory, within a bounded window.

    Indexed by an int or a slice, it is the velocity series.  A snapshot
    stores no velocity, so each is derived from q on the snapshot's map,
    rebuilt once from ``phi_edge`` when the velocity is first read.  Of
    that one bundle the window keeps only what a table row reads
    (``_RowMap``, from ``row_map``), so the interior map fields are dropped
    as soon as v and the curl are formed.  The last ``_STENCIL`` entries
    are kept, the most one time stencil reads, so a pass over the
    snapshots in order builds each bundle and derives each velocity once.

    Called with a field name, a snapshot index and a time order, it returns
    that time derivative: equation-substituted at the initial instant,
    differenced over the stored snapshots later.  ``"rate"`` names the
    interface speed h_t; its series, and each stored field's, is formed
    once per window.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self._kept: dict = {}   # least recently used first
        self._stored: dict = {}  # field name -> its series, listed once

    def __len__(self) -> int:
        return len(self.traj.snaps)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(len(self))[idx]]
        return self._entry(idx)[0]

    def row_map(self, idx: int) -> _RowMap:
        """The edge rows of the snapshot's map, the curl of its v and q_y."""
        return self._entry(idx)[1]

    def _entry(self, idx: int) -> tuple:
        idx = range(len(self))[idx]
        entry = self._kept.pop(idx, None)
        if entry is None:
            if len(self._kept) == _STENCIL:
                del self._kept[next(iter(self._kept))]
            grid = self.traj.grid
            snap = self.traj.snaps[idx]
            bundle = metric_bundle(grid, snap.phi_edge)
            v = snap.velocity(bundle)
            entry = (v, _RowMap(bundle.height, bundle.dheight, bundle.line_el,
                                bundle.jac_edge, curl_residual(grid, bundle, v),
                                edge_derivative(snap.q, grid.hy, 1)))
        self._kept[idx] = entry
        return entry

    @cached_property
    def _rates(self) -> list:
        return [self("h", i, 1) for i in range(len(self))]

    def __call__(self, name: str, idx: int, b: int = 0) -> np.ndarray:
        # the map's edge row moves at the edge row of the map velocity, and
        # the interface speed is the height's rate
        if name == "phi_edge" and b >= 1:
            return self("w_edge", idx, b - 1)
        if name == "rate" and b == 0:
            return self("h", idx, 1)
        idx = range(len(self))[idx]
        if idx == 0 and (name, b) in _INITIAL_KEYS:
            return self.traj.initial_derivatives[_INITIAL_KEYS[name, b]]
        series = (self if name == "v" else self._rates if name == "rate"
                  else self._stored.get(name))
        if series is None:
            series = self._stored[name] = [getattr(s, name) for s in self.traj.snaps]
        if b:
            return time_derivative(self.traj.times, series, b, idx)
        return series[idx]

    def try_call(self, name: str, idx: int, b: int):
        """Like __call__ but None where the stencil is unsupported."""
        try:
            return self(name, idx, b)
        except NeedsMoreStepsError:
            return None


class _Accumulator:
    """Running max / trapezoid-in-time of a family of squared norms.

    Entries reported as None (stencil not supported at that instant) are
    carried as zero in the integrals and skipped in the maxima.  Reading a
    family that was never passed to ``update`` raises KeyError.
    """

    def __init__(self):
        self.max: dict = {}
        self.integral: dict = {}
        self._last: dict = {}
        self._last_t: float | None = None

    def update(self, t: float, values: dict) -> None:
        for k, val in values.items():
            if val is None:
                val = 0.0
            else:
                prev = self.max.get(k)
                if prev is None or val > prev:
                    self.max[k] = val
            if self._last_t is not None:
                self.integral[k] = self.integral.get(k, 0.0) + 0.5 * (
                    t - self._last_t
                ) * (self._last.get(k, 0.0) + val)
            else:
                self.integral.setdefault(k, 0.0)
            self._last[k] = val
        self._last_t = t

    def sum_max(self, keys) -> float:
        # None-only families read as zero, never-recorded ones as KeyError
        missing = [k for k in keys if k not in self.integral]
        if missing:
            raise KeyError(f"families never recorded: {missing}")
        return float(sum(self.max.get(k, 0.0) for k in keys))

    def sum_int(self, keys) -> float:
        return float(sum(self.integral[k] for k in keys))


@dataclass(frozen=True)
class EnergyReport:
    """All functional values and identity residuals at one time instant.

    ``energy`` is the base higher-order functional; ``energy_kappa`` adds
    the width^2-weighted interface-speed families (NaN outside the
    regularized mode; the smoothed variant replaces the raw height by its
    layer-smoothed version).  ``lower_order`` is the reduced-order monitor,
    ``natural_energy`` the coercive quadratic form whose flux-weighted edge
    terms require a positive stability margin (NaN otherwise), and
    ``natural_energy_sigma`` its surface-tension extension.
    ``dissipation_residual`` is NaN on a run that never checks the
    dissipation law (any law but the unforced classical one).
    """

    t: float
    energy: float
    energy_sigma: float
    energy_kappa: float
    energy_kappa_smoothed: float
    lower_order: float
    natural_energy: float
    natural_energy_sigma: float
    taylor_margin: float
    curl_residual: float
    slip_residual: float
    curvature_identity_error: float
    dissipation_residual: float
    interface_speed_mean: float
    interface_flux_mean: float
    norm_energy_ratio: float
    graph_sup: float
    low_confidence_high_order: bool = True

    def row(self):
        out = []
        for name in self.COLUMNS:
            val = getattr(self, name)
            if isinstance(val, (bool, np.bool_)):
                out.append("1" if val else "0")
            elif val != val:
                out.append("")
            else:
                out.append(format(float(val), ".17g"))
        return out


#: the CSV header: the field names in declaration order
EnergyReport.COLUMNS = tuple(f.name for f in fields(EnergyReport))


def geometric_identities(traj: Trajectory, idx: int = -1,
                         window: _Window | None = None) -> dict:
    """Curl, slip, curvature-identity, and interface-speed records.

    Graph form: the scaled normal and tangent are (h', -1) and (1, h'), so
    the speed is v0 h' - v1 and the slip (v0 + v1 h') / g.  The curvature
    identity compares the second tangential derivative of the effective
    height against the tangential-velocity quotient; only edge points
    whose normal speed clears a tenth of the stability margin enter.  For
    a positive interface temperature (surface tension) the slip value is a
    record, not a residual: the identity's hypothesis fails there.
    The snapshot's velocity, map edge rows and curl come from ``window``,
    a table pass's shared window, or a new one when it is not passed.
    """
    idx = idx % len(traj)
    if window is None:
        window = _Window(traj)
    edges, v = window.row_map(idx), window[idx]
    ve = v[:, :, 0]
    g, dh = edges.line_el, edges.dheight
    rate = height_rate(edges, v)
    vn = rate / g
    slip = float(np.max(np.abs((ve[0] + ve[1] * dh) / g)))

    margin = traj.margins[idx]
    d2h = tangential_derivative(edges.height, 2)
    dv = tangential_derivative(ve, 1, axis=-1)
    mask = np.abs(vn) >= 0.1 * max(margin, 0.0)
    if margin > 0.0 and np.any(mask):
        rhs = g**2 * (dv[0] + dh * dv[1]) / rate
        num = float(np.max(np.abs((d2h - rhs)[mask])))
        den = max(float(np.max(np.abs(d2h[mask]))), 1e-14)
        curv_err = num / den
    else:
        curv_err = float("nan")

    flux = edges.jac_edge * edges.q_y
    return {
        "curl_residual": edges.curl,
        "slip_residual": slip,
        "curvature_identity_error": curv_err,
        "interface_speed_mean": float(np.mean(rate)),
        "interface_flux_mean": float(np.mean(flux)),
    }


def _instant_norms(traj: Trajectory, idx: int, window: _Window) -> dict:
    """All squared norms entering the functionals, at one snapshot.

    ``window`` is the table pass's window (``_Window(traj)``); the fields,
    their time derivatives, the snapshot's map edge rows and interface
    flux come from it.  The flux-weighted edge families ``wh`` and ``wht``
    are the natural energy's edge summands.
    """
    grid = traj.grid
    kappa = traj.config.kappa
    nx = grid.nx
    edges = window.row_map(idx)
    out = {}

    # interior velocity families
    for b, amax in ((0, 4), (1, 2), (2, 0)):
        vb = window.try_call("v", idx, b)
        if vb is None:
            for a in range(amax + 1):
                out[("v", a, b)] = None
            continue
        sq = mixed_squares(np.fft.rfft(vb, axis=-2), grid, amax, y_top=0)
        for a in range(amax + 1):
            out[("v", a, b)] = sq[a, 0]

    # per time order c of q, from one transform: the gauge-combination
    # interior families at the identity orders a + 2b = 4 (combo) and, one
    # time order up, a + 2b = 3 (combot), where time order c enters at
    # x-orders 4 - 2c and 5 - 2c; then the temperature Sobolev families
    # H^{4-2c} and H^{5-2c} (the energy) and H^{2-2c}, H^{3-2c} (the
    # lower-order monitor).  The map's derivative d^a_x d^c_t is
    # (0, d^a_x phi_c), since c = 0 only with a = 4 and the identity's
    # horizontal part has no such one; phi_c extends the edge series' c-th
    # time derivative, so its modes are the extension modes of that edge row
    v1 = window("v", idx)[1]
    for c in range(3):
        qc = window.try_call("q", idx, c)
        pc = window.try_call("phi_edge", idx, c)
        orders = range(max(2 - 2 * c, 0), 6 - 2 * c)
        keys = [("combo", 4 - 2 * c, c)]
        if c:
            keys.append(("combot", 5 - 2 * c, c - 1))
        # q's time orders need the most snapshots: phi_c is there when q_c is
        if qc is None:
            out.update(dict.fromkeys(keys + [("qH", s, c) for s in orders]))
            continue
        coef = np.fft.rfft(qc, axis=0)
        del qc
        x_orders = [a for _, a, _ in keys]
        dq = x_derivatives(coef, x_orders, nx)
        dp = x_derivatives(_extension_modes(grid, pc), x_orders, nx)
        for key, dqa, dpa in zip(keys, dq, dp):
            out[key] = integrate_interior((dqa + dpa * v1) ** 2, grid)
        del dq, dp
        sq = mixed_squares(coef, grid, orders[-1])
        del coef
        out.update({("qH", s, c): sum(val for (a, b), val in sq.items() if a + b <= s)
                    for s in orders})

    # edge families (module docstring): unsupported time orders enter as
    # zeros, and the smoothed modes are the raw ones at kappa = 0
    jac = edges.jac_edge
    weights = np.stack((np.ones(nx), 1.0 / jac, 1.0 / jac**2,
                        edges.line_el**-3 / jac, edges.q_y / jac))
    layer = _layer_symbol(float(kappa), nx)[:, None] if kappa > 0 else 1.0
    # the flux-weighted families are None where the margin is not positive
    flux_ok = traj.margins[idx] > 0.0
    for name in ("h", "rate"):
        rows = [window.try_call(name, idx, b) for b in range(3)]
        coef = np.fft.rfft(np.stack(
            [np.zeros(nx) if r is None else r for r in rows], axis=-1), axis=0)
        modes = np.stack((coef, coef * layer), axis=-1)
        # squared H^s norms [b, s], raw and smoothed; the weighted squares,
        # one array [raw or smoothed, b, a] per weight
        hs, hs_smooth = edge_squares(modes, range(6)).T
        ladder = x_derivatives(modes, range(6), nx)
        one, inv_j, inv_j2, sig, flux = np.einsum(
            "axbr,wx->wrba", ladder * ladder, weights) * (grid.hx / TWO_PI)
        for b, row in enumerate(rows):
            n = 4 - 2 * b
            if name == "h":
                # raw H^{4-2b}, H^{5-2b}; smoothed H^{4-2b} and, for the
                # lower-order monitor, H^{2-2b}, H^{3-2b}; the sigma-weighted
                # orders a + 2b <= 4 and the flux-weighted top order
                fam = {("hB", s, b): hs[b, s] for s in (n, n + 1)}
                fam.update({("hBs", s, b): hs_smooth[b, s]
                            for s in range(max(n - 2, 0), n + 1)})
                fam.update({("sigh", a, b): sig[0, b, a + 1] for a in range(n + 1)})
                fam[("wh", n, b)] = flux[1, b, n] if flux_ok else None
            else:
                # orders a + 2b <= 4 unweighted and 1/J-weighted, <= 3 for
                # the 1/J^2- and sigma-weighted ones, the flux-weighted top
                # order a + 2b = 3
                fam = {}
                for a in range(n + 1):
                    fam[("ht", a, b)], fam[("htJ", a, b)] = one[0, b, a], inv_j[0, b, a]
                for a in range(n):
                    fam[("htJ2", a, b)] = inv_j2[0, b, a]
                    fam[("sight", a, b)] = sig[0, b, a + 1]
                if n:
                    fam[("wht", n - 1, b)] = flux[1, b, n - 1] if flux_ok else None
                # the speed's Sobolev norms are left out, not None, where
                # unsupported
                if row is not None and b < 2:
                    out.update({("htB", s, b): hs[b, s] for s in (n - 1, n)})
            out.update(dict.fromkeys(fam) if row is None else fam)

    return out


def energy_table(traj: Trajectory) -> list:
    """One EnergyReport per snapshot, cumulative in time."""
    cfg = traj.config
    kappa = cfg.kappa
    sigma = cfg.sigma
    acc = _Accumulator()
    reports = []

    k2 = kappa * kappa
    leq4, leq3 = _orders_leq(4), _orders_leq(3)
    eq4, eq3 = _orders_eq(4), _orders_eq(3)
    leq2, leq1 = _orders_leq(2), _orders_leq(1)

    dis_max = 0.0 if traj.dissipation else float("nan")
    dis_iter = iter(traj.dissipation)
    dis_next = next(dis_iter, None)

    # one window for the pass: each snapshot's bundle is built once, and a
    # row's norms and identities share its edge rows
    window = _Window(traj)
    for idx, t in enumerate(traj.times):
        vals = _instant_norms(traj, idx, window)
        acc.update(t, vals)
        while dis_next is not None and dis_next[0] <= t + 1e-15:
            dis_max = max(dis_max, abs(dis_next[1]))
            dis_next = next(dis_iter, None)

        v_int = acc.sum_int([("v",) + ab for ab in leq4])
        v_max = acc.sum_max([("v",) + ab for ab in leq3])
        q_max = acc.sum_max([("qH", 4 - 2 * b, b) for b in range(3)])
        q_int = acc.sum_int([("qH", 5 - 2 * b, b) for b in range(3)])
        h_max = acc.sum_max([("hB", 4 - 2 * b, b) for b in range(3)])
        hs_max = acc.sum_max([("hBs", 4 - 2 * b, b) for b in range(3)])
        ht_int = acc.sum_int([("htB", 3 - 2 * b, b) for b in range(2)])

        energy = v_int + v_max + q_max + q_int + h_max + ht_int

        e_sig = energy
        if sigma > 0.0:
            e_sig = energy + sigma * (
                acc.sum_max([("hB", 5 - 2 * b, b) for b in range(3)])
                + acc.sum_int([("htB", 4 - 2 * b, b) for b in range(2)])
            ) + sigma**2 * h_max

        ht_l2 = acc.sum_int([("ht",) + ab for ab in leq4])
        ht_c0 = acc.sum_max([("ht",) + ab for ab in leq3])
        e_kap = energy + k2 * (ht_l2 + ht_c0) if kappa > 0 else float("nan")
        e_kap_s = (
            energy - h_max + hs_max + k2 * (ht_l2 + ht_c0)
            if kappa > 0 else float("nan")
        )

        lower = (
            acc.sum_int([("v",) + ab for ab in leq2])
            + acc.sum_max([("v",) + ab for ab in leq1])
            + k2 * acc.sum_int([("ht",) + ab for ab in leq2])
            + k2 * acc.sum_max([("ht",) + ab for ab in leq1])
            + acc.sum_max([("qH", 2 - 2 * b, b) for b in range(2)])
            + acc.sum_int([("qH", 3 - 2 * b, b) for b in range(2)])
            + acc.sum_max([("hBs", 2 - 2 * b, b) for b in range(2)])
            + acc.sum_int([("hBs", 3 - 2 * b, b) for b in range(2)])
        )

        whs = [acc.max.get(("wh",) + ab, float("nan")) for ab in eq4]
        whts = [acc.integral.get(("wht",) + ab, float("nan")) for ab in eq3]
        f_core = (
            v_int + 0.5 * v_max
            + 0.5 * acc.sum_max([("combo",) + ab for ab in eq4])
            + acc.sum_int([("combot",) + ab for ab in eq3])
        )
        f_edge = 0.5 * float(np.sum(whs)) + float(np.sum(whts))
        f_kap = f_core + f_edge + k2 * (
            acc.sum_int([("htJ",) + ab for ab in leq4])
            + 0.5 * acc.sum_max([("htJ2",) + ab for ab in leq3])
        )
        f_sig = f_core + f_edge
        if sigma > 0.0:
            f_sig = f_sig + 0.5 * sigma * acc.sum_max(
                [("sigh",) + ab for ab in leq4]
            ) + sigma * acc.sum_int([("sight",) + ab for ab in leq3])

        idents = geometric_identities(traj, idx, window)
        graph_sup = float(np.max(window.row_map(idx).dheight**2))
        ratio = e_kap / f_kap if kappa > 0 and f_kap > 0 else float("nan")

        reports.append(EnergyReport(
            t=t,
            energy=energy,
            energy_sigma=e_sig,
            energy_kappa=e_kap,
            energy_kappa_smoothed=e_kap_s,
            lower_order=lower,
            natural_energy=f_kap,
            natural_energy_sigma=f_sig,
            taylor_margin=traj.margins[idx],
            dissipation_residual=dis_max,
            norm_energy_ratio=ratio,
            graph_sup=graph_sup,
            **idents,
        ))
    return reports


def mixed_cnorm(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """Max-norm trajectory distance: values, time derivative, gradient,
    Hessian of the temperature plus the edge analog in the height.

    The convergence metric for the vanishing-surface-tension comparison.
    """
    if traj_a.grid.nx != traj_b.grid.nx or traj_a.grid.ny != traj_b.grid.ny:
        raise UsageError("trajectories live on different grids")
    if len(traj_a) != len(traj_b) or not np.allclose(
        traj_a.times, traj_b.times, rtol=0.0, atol=1e-12
    ):
        raise UsageError("trajectories have mismatched snapshot times")
    grid = traj_a.grid
    best_q = 0.0
    best_h = 0.0
    wa, wb = _Window(traj_a), _Window(traj_b)
    for idx in range(len(traj_a)):
        dq = wa("q", idx) - wb("q", idx)
        dqt = wa("q", idx, 1) - wb("q", idx, 1)
        d1, d11 = x_derivatives(np.fft.rfft(dq, axis=0), (1, 2), grid.nx)
        d2 = vertical_derivative(dq, grid.hy, 1)
        d12 = tangential_derivative(d2)
        d22 = vertical_derivative(d2, grid.hy, 1)
        hess = np.sqrt(d11 * d11 + 2.0 * d12 * d12 + d22 * d22)
        pointwise = np.abs(dq) + np.abs(dqt) + np.hypot(d1, d2) + hess
        best_q = max(best_q, float(np.max(pointwise)))
        dh = wa("h", idx) - wb("h", idx)
        dht = wa("h", idx, 1) - wb("h", idx, 1)
        d1h, d2h = x_derivatives(np.fft.rfft(dh), (1, 2), grid.nx)
        edge = np.abs(dh) + np.abs(dht) + np.abs(d1h) + np.abs(d2h)
        best_h = max(best_h, float(np.max(edge)))
    return best_q + best_h


def heat_content(grid: Grid, state) -> float:
    """1/2 int q^2 J, the energy of the dissipation law."""
    return 0.5 * integrate_interior(state.q**2 * state.jac, grid)


def dissipation_defect(grid: Grid, heat_old: float, heat_new: float, new,
                       dt: float) -> tuple:
    """``(t, defect)``: the energy dissipation law over one step, normalized.

    The law on the fixed strip reads  d/dt [1/2 int q^2 J] = -int |v|^2 J;
    both sides are evaluated on consecutive states with the run's own
    quadrature and velocity, so the defect isolates splitting and motion
    errors.  ``heat_old`` and ``heat_new`` are the ``heat_content`` of the
    state before the step and of ``new``; a run computes each once.
    """
    b_new = integrate_interior((new.v[0] ** 2 + new.v[1] ** 2) * new.jac, grid)
    defect = (heat_new - heat_old) / dt + b_new
    return (new.t, defect / max(b_new, 1e-30))
